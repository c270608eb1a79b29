package tcp

// This file is the paper's State module: "the main state manipulations
// required on connection open, close, or abort, and also when a timer
// expires" (timer dispatch itself lives with the Action module; the
// state consequences live here and in resend.go).

// stateActiveOpen performs the active OPEN of RFC 793: choose an ISS,
// move to SYN-SENT, and queue the SYN (with our MSS option) for
// transmission and retransmission.
func (c *Conn) stateActiveOpen() {
	tcb := c.tcb
	now := c.t.s.Now()
	iss := c.t.chooseISS()
	tcb.iss = iss
	tcb.sndUna = iss
	tcb.sndNxt = iss + 1
	tcb.cwnd = tcb.mss32()
	tcb.ssthresh = 0xffff
	tcb.recover = iss
	c.setState(StateSynSent)

	syn := &segment{
		srcPort: c.key.lport, dstPort: c.key.rport,
		seq: iss, flags: flagSYN,
		mss:    c.t.localMSS(),
		sentAt: now, firstSentAt: now, timed: true,
	}
	tcb.rexmitQ.PushBack(syn)
	c.queueSend(syn)
	c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: tcb.rto})
	c.enqueue(action{kind: actSetTimer, which: timerUser, d: c.t.cfg.UserTimeout})
}

// statePassiveSyn performs the LISTEN-state SYN processing: record the
// peer's sequence space, choose our ISS, move to Syn_Passive, and queue
// the SYN,ACK.
func (c *Conn) statePassiveSyn(sg *segment) {
	tcb := c.tcb
	now := c.t.s.Now()
	tcb.irs = sg.seq
	tcb.rcvNxt = sg.seq + 1
	if sg.mss != 0 {
		tcb.mss = min(int(sg.mss), c.t.MTU())
	}
	tcb.sndWnd = uint32(sg.wnd)
	tcb.sndWl1 = sg.seq
	tcb.maxWnd = uint32(sg.wnd)

	iss := c.t.chooseISS()
	tcb.iss = iss
	tcb.sndUna = iss
	tcb.sndNxt = iss + 1
	tcb.sndWl2 = iss
	tcb.cwnd = tcb.mss32()
	tcb.ssthresh = 0xffff
	tcb.recover = iss
	c.setState(StateSynPassive)

	synAck := &segment{
		srcPort: c.key.lport, dstPort: c.key.rport,
		seq: iss, ack: tcb.rcvNxt, flags: flagSYN | flagACK,
		mss:    c.t.localMSS(),
		sentAt: now, firstSentAt: now, timed: true,
	}
	tcb.rexmitQ.PushBack(synAck)
	c.queueSend(synAck)
	c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: tcb.rto})
	c.enqueue(action{kind: actSetTimer, which: timerUser, d: c.t.cfg.UserTimeout})
}

// stateEstablish moves a synchronizing connection to ESTABLISHED and
// releases the opener.
func (c *Conn) stateEstablish() {
	c.setState(StateEstab)
	c.leaveHalfOpen()
	c.enqueue(action{kind: actClearTimer, which: timerUser})
	if c.t.cfg.Keepalive {
		c.tcb.lastRecv = c.t.s.Now()
		c.enqueue(action{kind: actSetTimer, which: timerKeepalive, d: c.t.cfg.KeepaliveIdle})
	}
	c.enqueue(action{kind: actCompleteOpen})
	c.enqueue(action{kind: actMaybeSend})
	// Data that arrived with the SYN was held out of order; it is
	// deliverable now (and is queued behind Complete_Open, honoring the
	// no-data-before-open-returns rule).
	c.drainOutOfOrder()
}

// stateClose performs the user CLOSE call: in the synchronizing states it
// abandons the attempt; afterwards it queues a FIN behind any unsent
// data.
func (c *Conn) stateClose() {
	switch c.state {
	case StateClosed, StateListen:
		c.enqueue(action{kind: actCompleteClose})
		c.enqueue(action{kind: actDeleteTCB})
	case StateSynSent:
		// RFC 793: CLOSE in SYN-SENT deletes the TCB.
		c.enqueue(action{kind: actCompleteOpen, err: ErrClosed})
		c.enqueue(action{kind: actCompleteClose})
		c.enqueue(action{kind: actDeleteTCB})
	default:
		c.tcb.finQueued = true
		c.enqueue(action{kind: actMaybeSend})
	}
}

// stateFinSent records the state transition triggered by actually
// emitting our FIN (the Send module calls it once, when the FIN leaves).
func (c *Conn) stateFinSent() {
	switch c.state {
	case StateSynActive, StateSynPassive, StateEstab:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	}
}

// stateOurFinAcked records the transition when the peer acknowledges our
// FIN.
func (c *Conn) stateOurFinAcked() {
	switch c.state {
	case StateFinWait1:
		c.setState(StateFinWait2)
		c.enqueue(action{kind: actCompleteClose})
	case StateClosing:
		c.enterTimeWait()
	case StateLastAck:
		c.enqueue(action{kind: actCompleteClose})
		c.enqueue(action{kind: actDeleteTCB})
	}
}

// statePeerFin records the transition when the peer's FIN becomes
// in-order; checkFin has already advanced rcvNxt and scheduled the ACK.
func (c *Conn) statePeerFin() {
	c.enqueue(action{kind: actPeerClosed})
	switch c.state {
	case StateSynActive, StateSynPassive, StateEstab:
		c.setState(StateCloseWait)
	case StateFinWait1:
		// If our FIN had been acknowledged we would be in FIN-WAIT-2
		// by now (ack processing precedes FIN processing), so this is
		// a simultaneous close.
		c.setState(StateClosing)
	case StateFinWait2:
		c.enterTimeWait()
	case StateTimeWait:
		// Retransmitted FIN: restart the 2MSL timer.
		c.enqueue(action{kind: actSetTimer, which: timerTimeWait, d: c.twoMSL()})
	}
}

// enterTimeWait starts the 2×MSL quarantine.
func (c *Conn) enterTimeWait() {
	c.setState(StateTimeWait)
	c.enqueue(action{kind: actClearTimer, which: timerRexmit})
	c.enqueue(action{kind: actClearTimer, which: timerPersist})
	c.enqueue(action{kind: actSetTimer, which: timerTimeWait, d: c.twoMSL()})
	c.enqueue(action{kind: actCompleteClose})
}

// stateAbort performs the user ABORT call (and internal aborts such as
// the user timeout): RST to a synchronized peer, error to every waiter.
func (c *Conn) stateAbort(err error) {
	if err == ErrProgressTimeout {
		c.note(evProgressTimeout, int64(c.tcb.backoff), 0)
	}
	switch c.state {
	case StateSynActive, StateSynPassive, StateEstab,
		StateFinWait1, StateFinWait2, StateCloseWait:
		rst := &segment{
			srcPort: c.key.lport, dstPort: c.key.rport,
			seq: c.tcb.sndNxt, flags: flagRST | flagACK, ack: c.tcb.rcvNxt,
		}
		c.queueSend(rst)
	}
	c.enqueue(action{kind: actUserError, err: err})
}
