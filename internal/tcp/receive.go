package tcp

// This file is the paper's Receive module. The standard describes segment
// arrival "as a procedure with branch points and merge points, but no
// loops (a directed acyclic graph)"; the paper implements "exactly the
// branches specified in the standard, using functions as labels for the
// merge points." Each function below is one of those labels, in the
// order RFC 793 pp. 64–75 presents the steps.

// receiveSegment is the root of the DAG: dispatch on connection state.
func (c *Conn) receiveSegment(sg *segment) {
	c.tcb.lastRecv = c.t.s.Now()
	c.tcb.keepaliveProbes = 0
	c.tcb.segsIn++
	switch c.state {
	case StateClosed:
		// The connection object lingers (e.g. a late segment raced a
		// teardown); RFC 793's CLOSED-state reset generation already
		// happened at the endpoint for truly unknown keys.
		return
	case StateListen:
		c.rcvListen(sg)
		return
	case StateSynSent:
		c.rcvSynSent(sg)
		return
	}
	if c.state == StateEstab && c.t.cfg.fastPath() && c.fastPathIn(sg) {
		c.note(evFastPathIn, 0, 0)
		return
	}
	c.note(evSlowPathIn, 0, 0)
	if c.state == StateTimeWait {
		c.rcvTimeWait(sg)
	} else {
		c.rcvGeneral(sg)
	}
}

// rcvTimeWait: the only thing that can legitimately arrive in TIME-WAIT
// is a retransmission of the remote FIN (our final ACK was lost).
// Acknowledge it and restart the 2 MSL timeout, as RFC 793's step 8
// directs; resets are ignored per RFC 1337 so a stray RST cannot
// assassinate the quarantine.
func (c *Conn) rcvTimeWait(sg *segment) {
	if sg.has(flagRST) {
		c.note(evRstIn, 0, 0)
		return
	}
	if sg.has(flagSYN) {
		// A new incarnation's SYN during quarantine: stay safe, stay
		// quiet (accepting it would risk old duplicates).
		return
	}
	c.tcb.ackNow = true
	c.enqueue(action{kind: actMaybeSend})
	c.enqueue(action{kind: actSetTimer, which: timerTimeWait, d: c.twoMSL()})
}

// rcvListen: first check for an RST, second check for an ACK, third
// check for a SYN (RFC 793 p. 64).
func (c *Conn) rcvListen(sg *segment) {
	if sg.has(flagRST) {
		c.enqueue(action{kind: actDeleteTCB}) // this embryonic connection only
		return
	}
	if sg.has(flagACK) {
		c.sendRstRaw(sg.ack, 0, false)
		c.enqueue(action{kind: actDeleteTCB})
		return
	}
	if !sg.has(flagSYN) {
		c.enqueue(action{kind: actDeleteTCB})
		return
	}
	c.statePassiveSyn(sg)
	// Text or a FIN arriving with the SYN is legal but rare; RFC 793
	// queues it for processing once ESTABLISHED. We keep the SYN's
	// payload on the out-of-order queue so the normal drain delivers it.
	if len(sg.data) > 0 || sg.has(flagFIN) {
		dataSeg := &segment{seq: sg.seq + 1, flags: sg.flags &^ flagSYN, data: sg.data, lent: sg.lent}
		c.insertOutOfOrder(dataSeg)
	}
}

// rcvSynSent: RFC 793 p. 66.
func (c *Conn) rcvSynSent(sg *segment) {
	tcb := c.tcb
	ackOK := false
	if sg.has(flagACK) {
		if seqLEQ(sg.ack, tcb.iss) || seqGT(sg.ack, tcb.sndNxt) {
			if !sg.has(flagRST) {
				c.sendRstRaw(sg.ack, 0, false)
			}
			return
		}
		ackOK = true
	}
	if sg.has(flagRST) {
		if ackOK {
			c.note(evRstIn, 0, 0)
			c.enqueue(action{kind: actUserError, err: ErrRefused})
		}
		return
	}
	if !sg.has(flagSYN) {
		return
	}
	tcb.irs = sg.seq
	tcb.rcvNxt = sg.seq + 1
	if sg.mss != 0 {
		tcb.mss = min(int(sg.mss), c.t.MTU())
		tcb.cwnd = tcb.mss32()
	}
	tcb.sndWnd = uint32(sg.wnd)
	tcb.sndWl1 = sg.seq
	tcb.sndWl2 = sg.ack
	tcb.maxWnd = uint32(sg.wnd)

	if ackOK {
		c.ackAdvance(sg.ack)
		c.stateEstablish()
		tcb.ackNow = true
		if len(sg.data) > 0 || sg.has(flagFIN) {
			// Text or FIN riding the SYN,ACK: the SYN consumed one
			// sequence number, so the data starts at seq+1.
			dataSeg := &segment{seq: sg.seq + 1, ack: sg.ack, flags: sg.flags &^ flagSYN, wnd: sg.wnd, data: sg.data, lent: sg.lent}
			c.processText(dataSeg)
			c.checkFin(dataSeg)
		}
		c.enqueue(action{kind: actMaybeSend})
		return
	}
	// Simultaneous open: our SYN and theirs crossed.
	c.setState(StateSynActive)
	// The queued SYN must henceforth acknowledge theirs.
	if front, ok := tcb.rexmitQ.Front(); ok && front.has(flagSYN) {
		front.flags |= flagACK
	}
	synAck := &segment{
		srcPort: c.key.lport, dstPort: c.key.rport,
		seq: tcb.iss, ack: tcb.rcvNxt, flags: flagSYN | flagACK,
		mss: c.t.localMSS(),
	}
	c.queueSend(synAck)
}

// rcvGeneral: "Otherwise" — the eight numbered steps of RFC 793 p. 69.
func (c *Conn) rcvGeneral(sg *segment) {
	if !c.checkSequence(sg) { // first: sequence number
		return
	}
	if sg.has(flagRST) { // second: RST bit
		// RFC 5961 §3.2: only an RST whose sequence number exactly
		// matches rcv_nxt resets the connection. In-window-but-inexact
		// RSTs — what a blind attacker sweeping the window produces —
		// answer with a challenge ACK; a genuine peer replies with an
		// exact-sequence RST, which then passes this test.
		if sg.seq == c.tcb.rcvNxt {
			c.handleRst()
		} else {
			c.note(evRstIn, 0, 0)
			c.sendChallengeAck(challengeRST)
		}
		return
	}
	// (third: security and precedence — not implemented, as in practice)
	if sg.has(flagSYN) { // fourth: SYN in the window
		// RFC 793 resets the connection here, which lets a blind
		// attacker kill it with a spoofed SYN. RFC 5961 §4.2 sends a
		// challenge ACK instead: a peer that genuinely restarted answers
		// the challenge with an exact-sequence RST.
		c.sendChallengeAck(challengeSYN)
		return
	}
	if !sg.has(flagACK) { // fifth: segments without ACK are dropped
		return
	}
	if !c.checkAck(sg) {
		return
	}
	// Sixth: URG. Record the advancing urgent pointer and notify the
	// user; the data itself is delivered in-band.
	if sg.has(flagURG) && seqGT(sg.seq+seq(sg.up), c.tcb.rcvUp) {
		c.tcb.rcvUp = sg.seq + seq(sg.up)
		if c.handler.Urgent != nil {
			c.handler.Urgent(c)
		}
	}
	c.processText(sg) // seventh: the segment text
	c.checkFin(sg)    // eighth: the FIN bit
	c.enqueue(action{kind: actMaybeSend})
}

// checkSequence is the acceptability test of RFC 793 p. 69, followed by
// trimming the segment to the window. Unacceptable segments provoke an
// immediate ACK (unless they carry RST) and are dropped.
func (c *Conn) checkSequence(sg *segment) bool {
	tcb := c.tcb
	segLen := sg.seqLen()
	wnd := tcb.rcvWnd
	acceptable := false
	switch {
	case segLen == 0 && wnd == 0:
		acceptable = sg.seq == tcb.rcvNxt
	case segLen == 0 && wnd > 0:
		acceptable = seqBetween(tcb.rcvNxt, sg.seq, tcb.rcvNxt+seq(wnd))
	case segLen > 0 && wnd == 0:
		acceptable = false
	default:
		acceptable = seqBetween(tcb.rcvNxt, sg.seq, tcb.rcvNxt+seq(wnd)) ||
			seqBetween(tcb.rcvNxt, sg.seq+seq(segLen)-1, tcb.rcvNxt+seq(wnd))
	}
	if !acceptable {
		if !sg.has(flagRST) {
			c.sendThrottledAck()
		}
		return false
	}
	// Trim data that falls before the window...
	if seqLT(sg.seq, tcb.rcvNxt) && len(sg.data) > 0 {
		cut := int(seqSub(tcb.rcvNxt, sg.seq))
		if cut >= len(sg.data) {
			sg.data = nil
		} else {
			sg.data = sg.data[cut:]
		}
		sg.seq = tcb.rcvNxt
	}
	// ...and beyond it (a FIN past the edge is deferred with its data).
	if end := sg.seq + seq(len(sg.data)); seqGT(end, tcb.rcvNxt+seq(wnd)) {
		keep := int(seqSub(tcb.rcvNxt+seq(wnd), sg.seq))
		if keep < 0 {
			keep = 0
		}
		sg.data = sg.data[:keep]
		sg.flags &^= flagFIN
	}
	return true
}

// handleRst is the second step's per-state consequence.
func (c *Conn) handleRst() {
	c.note(evRstAccepted, 0, 0)
	switch c.state {
	case StateSynPassive:
		// Passive open returns quietly to LISTEN (the listener is still
		// installed; only this embryonic connection dies).
		c.enqueue(action{kind: actDeleteTCB})
	case StateSynActive, StateEstab, StateFinWait1, StateFinWait2, StateCloseWait:
		c.enqueue(action{kind: actUserError, err: ErrReset})
	case StateClosing, StateLastAck:
		c.enqueue(action{kind: actCompleteClose})
		c.enqueue(action{kind: actDeleteTCB})
	case StateTimeWait:
		// RFC 1337: ignore resets in TIME-WAIT so a stray RST cannot
		// assassinate the quarantine.
	}
}

// checkAck is the fifth step: per-state ACK processing. It returns false
// when processing of this segment must stop.
func (c *Conn) checkAck(sg *segment) bool {
	tcb := c.tcb
	switch c.state {
	case StateSynActive, StateSynPassive:
		if seqLEQ(tcb.sndUna, sg.ack) && seqLEQ(sg.ack, tcb.sndNxt) {
			c.ackAdvance(sg.ack)
			tcb.sndWnd = uint32(sg.wnd)
			tcb.sndWl1 = sg.seq
			tcb.sndWl2 = sg.ack
			if uint32(sg.wnd) > tcb.maxWnd {
				tcb.maxWnd = uint32(sg.wnd)
			}
			c.stateEstablish()
			return true
		}
		c.sendRstRaw(sg.ack, 0, false)
		return false

	case StateEstab, StateFinWait1, StateFinWait2, StateCloseWait, StateClosing, StateLastAck:
		return c.processAck(sg)

	case StateTimeWait:
		// The only thing that can arrive is a retransmission of the
		// remote FIN: acknowledge it and restart 2MSL (checkFin will).
		tcb.ackNow = true
		return true
	}
	return false
}

// processAck is the ESTABLISHED-state ACK processing shared by every
// synchronized state.
func (c *Conn) processAck(sg *segment) bool {
	tcb := c.tcb
	switch {
	case seqGT(sg.ack, tcb.sndNxt):
		// Ack of data never sent: ack back, drop.
		tcb.ackNow = true
		c.enqueue(action{kind: actMaybeSend})
		return false
	case seqLT(sg.ack, tcb.sndUna) && seqSub(tcb.sndUna, sg.ack) > tcb.maxWnd:
		// RFC 5961 §5.2: an ACK older than snd_una by more than the
		// largest window the peer ever saw cannot be a delayed
		// duplicate; challenge it instead of feeding the dup-ack
		// machinery.
		c.sendChallengeAck(challengeStaleAck)
		return false
	case seqGT(sg.ack, tcb.sndUna):
		c.ackAdvance(sg.ack)
	default:
		// Duplicate ACK.
		if len(sg.data) == 0 && uint32(sg.wnd) == tcb.sndWnd && !tcb.rexmitQ.Empty() {
			c.dupAck()
		}
	}
	c.updateSendWindow(sg)
	return true
}

// updateSendWindow applies RFC 793's wl1/wl2 rule so that old segments
// cannot shrink our view of the peer's window.
func (c *Conn) updateSendWindow(sg *segment) {
	tcb := c.tcb
	if seqLT(tcb.sndWl1, sg.seq) ||
		(tcb.sndWl1 == sg.seq && seqLEQ(tcb.sndWl2, sg.ack)) {
		opened := uint32(sg.wnd) > tcb.sndWnd
		tcb.sndWnd = uint32(sg.wnd)
		tcb.sndWl1 = sg.seq
		tcb.sndWl2 = sg.ack
		if tcb.sndWnd > tcb.maxWnd {
			tcb.maxWnd = tcb.sndWnd
		}
		if opened {
			c.enqueue(action{kind: actClearTimer, which: timerPersist})
			c.enqueue(action{kind: actMaybeSend})
		}
	}
}

// processText is the seventh step: deliver in-order text, hold
// out-of-order text, schedule acknowledgments.
func (c *Conn) processText(sg *segment) {
	if len(sg.data) == 0 {
		return
	}
	switch c.state {
	case StateEstab, StateFinWait1, StateFinWait2:
	default:
		return // RFC 793: "this should not occur ... ignore the text"
	}
	tcb := c.tcb
	if sg.seq == tcb.rcvNxt {
		c.deliver(sg)
		c.drainOutOfOrder()
		tcb.unackedSegs++
		if tcb.unackedSegs >= 2 || !c.t.cfg.delayedAcks() {
			tcb.ackNow = true
		} else {
			tcb.ackPending = true
		}
	} else {
		c.note(evOutOfOrder, 0, 0)
		c.insertOutOfOrder(sg)
		// A hole: ack immediately so the peer sees the duplicate.
		tcb.ackNow = true
	}
}

// deliver advances rcv_nxt over sg's text, which starts there, and queues
// its delivery to the user. Nothing touches sg.data between here and the
// User_Data action: the action carries the segment, not a slice, so that
// a Read buffer can still keep the frame the text is borrowed from.
//
//foxvet:hotpath
func (c *Conn) deliver(sg *segment) {
	c.tcb.rcvNxt += seq(len(sg.data))
	c.enqueue(action{kind: actUserData, seg: sg})
}

// insertOutOfOrder files a segment on the out-of-order queue, sorted by
// sequence number, dropping exact duplicates. The queue is byte-bounded
// (Config.ReassemblyLimit, counting payload plus per-segment overhead);
// at the cap the newest — highest-sequence — segments are evicted, which
// preserves head progress: the hole closest to rcv_nxt keeps its filler,
// so a gap bomb costs the attacker the far end of its own spray. The queue
// outlives the upcall that brought sg, so what it files is owned — once it
// survives the cap: sg itself may be the newest, and is not held just to
// be evicted. Each held victim's hold ends with its eviction.
func (c *Conn) insertOutOfOrder(sg *segment) {
	oo := c.tcb.outOfOrder
	at := len(oo)
	for i, q := range oo {
		if q.seq == sg.seq && len(q.data) >= len(sg.data) {
			return // duplicate
		}
		if seqGT(q.seq, sg.seq) {
			at = i
			break
		}
	}
	oo = append(oo, nil)
	copy(oo[at+1:], oo[at:])
	oo[at] = sg
	c.tcb.outOfOrder = oo
	c.oooCharge(sg)
	for c.tcb.oooBytes > c.t.cfg.ReassemblyLimit && len(c.tcb.outOfOrder) > 0 {
		last := len(c.tcb.outOfOrder) - 1
		victim := c.tcb.outOfOrder[last]
		c.tcb.outOfOrder[last] = nil
		c.tcb.outOfOrder = c.tcb.outOfOrder[:last]
		c.oooRelease(victim)
		c.note(evOOOEvicted, 0, 0)
		c.t.release(victim)
	}
	if at < len(c.tcb.outOfOrder) {
		c.tcb.outOfOrder[at] = c.t.own(sg)
	}
}

// drainOutOfOrder delivers every held segment that has become in-order,
// including any FIN one of them carries. Draining compacts in place and
// nils the vacated tail slot — reslicing the head off ([1:]) would keep
// every delivered segment reachable through the backing array until the
// whole queue emptied. A delivered segment's hold ends after its Data
// upcall, which may already have run when deliver returns (DirectDispatch),
// so the FIN is read off q first; a segment with nothing left to deliver
// ends its hold here.
func (c *Conn) drainOutOfOrder() {
	tcb := c.tcb
	for len(tcb.outOfOrder) > 0 {
		q := tcb.outOfOrder[0]
		if seqGT(q.seq, tcb.rcvNxt) {
			return // still a hole
		}
		n := len(tcb.outOfOrder) - 1
		copy(tcb.outOfOrder, tcb.outOfOrder[1:])
		tcb.outOfOrder[n] = nil
		tcb.outOfOrder = tcb.outOfOrder[:n]
		c.oooRelease(q)
		end, fin := q.seq+seq(len(q.data)), q.has(flagFIN)
		if seqGT(end, tcb.rcvNxt) {
			// Trim what an earlier segment already delivered.
			q.data = q.data[seqSub(tcb.rcvNxt, q.seq):]
			q.seq = tcb.rcvNxt
			c.deliver(q)
		} else {
			c.t.release(q)
		}
		if fin {
			c.checkFin(&segment{seq: end, flags: flagFIN})
		}
	}
}

// checkFin is the eighth step: process a FIN that has become in-order.
func (c *Conn) checkFin(sg *segment) {
	if !sg.has(flagFIN) {
		return
	}
	switch c.state {
	case StateClosed, StateListen, StateSynSent:
		return
	}
	tcb := c.tcb
	finSeq := sg.seq + seq(len(sg.data))
	if finSeq != tcb.rcvNxt {
		// FIN beyond a hole: if it rode an out-of-order data segment,
		// processText already filed that segment (FIN flag intact) and
		// drainOutOfOrder will re-call us when the hole fills; a bare
		// out-of-order FIN must be filed here. A FIN before rcv_nxt is
		// a duplicate and is dropped.
		if seqGT(finSeq, tcb.rcvNxt) && len(sg.data) == 0 {
			c.insertOutOfOrder(&segment{seq: sg.seq, flags: flagFIN})
		}
		return
	}
	tcb.rcvNxt++
	tcb.ackNow = true
	c.statePeerFin()
	c.enqueue(action{kind: actMaybeSend})
}

// sendChallengeAck answers a suspicious in-window probe (RFC 5961): an
// ACK carrying the exact rcv_nxt/snd_nxt the real peer already knows,
// which tells a genuine out-of-sync peer where the connection stands and
// tells a blind attacker nothing. Rate-limited per connection so the
// defense is not itself an amplifier, nor (as an endpoint-wide bucket
// would be) an off-path side channel coupling unrelated connections.
func (c *Conn) sendChallengeAck(reason int64) {
	if !c.takeChallengeToken() {
		c.note(evChallengeMuted, 0, 0)
		return
	}
	c.note(evChallengeAck, reason, 0)
	c.tcb.ackNow = true
	c.enqueue(action{kind: actMaybeSend})
}

// sendThrottledAck re-acknowledges an unacceptable (out-of-window)
// segment through the same per-connection token bucket as challenge ACKs
// (RFC 5961 §5.3's ACK throttling, Linux's tcp_invalid_ratelimit).
// Unthrottled, a spoofed flood of bogus segments converts into a stream
// of pure ACKs at the genuine peer — indistinguishable from duplicate
// ACKs, so they trip fast retransmit and poison its congestion control.
// Legitimate traffic on this path (retransmissions whose ACK was lost,
// zero-window probes, keepalives) arrives orders of magnitude below the
// bucket rate and is effectively never suppressed.
func (c *Conn) sendThrottledAck() {
	if !c.takeChallengeToken() {
		c.note(evOOWAckMuted, 0, 0)
		return
	}
	c.tcb.ackNow = true
	c.enqueue(action{kind: actMaybeSend})
}

// sendRstRaw emits a reset outside the connection's sequence machinery.
func (c *Conn) sendRstRaw(seqNo, ackNo seq, withAck bool) {
	rst := &segment{
		srcPort: c.key.lport, dstPort: c.key.rport,
		seq: seqNo, flags: flagRST,
	}
	if withAck {
		rst.flags |= flagACK
		rst.ack = ackNo
	}
	c.t.emitRaw(c.key.raddr, rst)
}
