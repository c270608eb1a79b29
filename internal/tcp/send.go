package tcp

import (
	"repro/internal/profile"
	"repro/internal/sim"
)

// This file is the paper's Send module: it "segments outgoing data and
// places corresponding Send_Segment actions onto the to_do queue."

// canCarryData reports whether the state allows sending new data.
func (c *Conn) canCarryData() bool {
	switch c.state {
	case StateEstab, StateCloseWait:
		return true
	}
	return false
}

// sendModule is the Maybe_Send action: segmentize whatever the offered
// window, the congestion window, Nagle, and sender silly-window
// avoidance permit; append a FIN when the user has closed and the queue
// has drained; and finally emit a pure ACK if one is owed and nothing
// else carried it.
func (c *Conn) sendModule() {
	tcb := c.tcb
	sentAny := false

	if c.canCarryData() {
		for tcb.queuedBytes > 0 {
			wnd := tcb.sendWindow(c.t.cfg.congestionControl())
			flight := tcb.flightSize()
			if flight >= wnd {
				if wnd == 0 && flight == 0 && !tcb.timerSet[timerPersist] {
					// Zero window with nothing in flight: arm the
					// persist timer so a lost update cannot wedge us.
					c.note(evZeroWindow, 0, 0)
					c.enqueue(action{kind: actSetTimer, which: timerPersist, d: c.persistBackoff()})
				}
				break
			}
			avail := int(wnd - flight)
			n := min(avail, tcb.mss, tcb.queuedBytes)
			if n <= 0 {
				break
			}
			if n < tcb.mss && n < tcb.queuedBytes && flight > 0 {
				// Sub-MSS send that does not drain the queue: pure
				// sender SWS avoidance — wait unless it is at least
				// half the largest window we have seen. With nothing
				// in flight we send anyway (RFC 1122's idle rule), or
				// sender and receiver could deadlock waiting on each
				// other's silly-window thresholds.
				if tcb.maxWnd > 0 && uint32(n) < tcb.maxWnd/2 {
					break
				}
			}
			if n < tcb.mss && n == tcb.queuedBytes && flight > 0 && c.t.cfg.nagle() {
				// Nagle: a small final piece waits while anything is
				// outstanding.
				break
			}
			c.sendData(n)
			c.clearAckDebt()
			sentAny = true
		}
	}

	// FIN goes out once the queue is empty (it consumes one sequence
	// number; we allow it regardless of window, as BSD did).
	if tcb.finQueued && !tcb.finSent && tcb.queuedBytes == 0 &&
		c.state != StateClosed && c.state != StateListen && c.state != StateSynSent {
		c.sendFin()
		c.clearAckDebt()
		sentAny = true
	}

	// A pending ACK that nothing piggybacked: send it now if it is due,
	// or arm the delayed-ack timer.
	if !sentAny {
		if tcb.ackNow || (tcb.ackPending && !c.t.cfg.delayedAcks()) {
			c.sendPureAck()
		} else if tcb.ackPending && !tcb.timerSet[timerDelayedAck] {
			c.enqueue(action{kind: actSetTimer, which: timerDelayedAck, d: c.t.cfg.AckDelay})
		}
	}
}

// sendData emits one data segment of n bytes from the send queue. The
// payload is copied exactly once, from the user's queued buffers into
// the packet the segment will travel in — a packet from the endpoint's
// free list, which the segment keeps until it is acknowledged.
//
//foxvet:hotpath
func (c *Conn) sendData(n int) {
	// maybeSend only passes 0 < n <= min(window, MSS); the guard makes
	// that contract local, keeping seq(n) provably lossless.
	if n <= 0 || n > 0xffffffff {
		return
	}
	tcb := c.tcb
	now := c.t.s.Now()

	cp := c.t.cfg.Prof.Start(profile.CatCopy)
	sg := c.takeSegment(n, now)
	c.t.chargePerKB(c.t.cfg.DataPath.CopyPerKB, n)
	cp.Stop()

	if tcb.queuedBytes == 0 {
		sg.flags |= flagPSH
	}
	// Urgent mode: while unsent urgent data remains ahead, every segment
	// carries URG with the pointer to the end of the urgent data
	// (RFC 793 with the RFC 1122 §4.2.2.4 correction: the pointer names
	// the last urgent byte).
	if tcb.urgentPending {
		if seqGT(tcb.sndUpSeq, sg.seq) {
			sg.flags |= flagURG
			up := seqSub(tcb.sndUpSeq, sg.seq)
			if up > 0xffff {
				// The 16-bit pointer cannot reach farther; RFC 793's
				// field saturates rather than wraps.
				up = 0xffff
			}
			sg.up = uint16(up)
		}
		if seqGEQ(sg.seq+seq(n), tcb.sndUpSeq) {
			tcb.urgentPending = false
		}
	}
	tcb.sndNxt += seq(n)
	c.note(evSegmentized, int64(n), 0)

	// RTT timing: one sample in flight at a time (Karn's scheme).
	if !c.timingInFlight() {
		sg.timed = true
	}
	tcb.rexmitQ.PushBack(sg)
	if !tcb.timerSet[timerRexmit] {
		c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: c.currentRTO()})
	}
	c.queueSend(sg)
	// Queue space freed: wake writers blocked on the send buffer.
	c.bufCond.Broadcast()
}

// takeSegment moves the next n bytes of the send queue into a data
// segment at snd_nxt, in a packet from the endpoint's free list — the
// send path's single copy. The caller advances snd_nxt and queues it.
//
//foxvet:hotpath
func (c *Conn) takeSegment(n int, now sim.Time) *segment {
	sg := c.t.pool.get(n)
	sg.srcPort, sg.dstPort = c.key.lport, c.key.rport
	sg.seq, sg.flags = c.tcb.sndNxt, flagACK
	sg.sentAt, sg.firstSentAt = now, now
	c.tcb.queueTake(sg.data, n)
	c.t.memCharge(-n)
	return sg
}

// queueSend places a Send_Segment action for sg on to_do, counting it on
// the segment so the free list knows a transmission is still owed.
func (c *Conn) queueSend(sg *segment) {
	sg.sends++
	c.enqueue(action{kind: actSendSegment, seg: sg})
}

// sendFin emits our FIN and performs the associated state transition.
func (c *Conn) sendFin() {
	tcb := c.tcb
	now := c.t.s.Now()
	sg := &segment{
		srcPort: c.key.lport, dstPort: c.key.rport,
		seq: tcb.sndNxt, flags: flagFIN | flagACK,
		sentAt: now, firstSentAt: now,
	}
	tcb.finSent = true
	tcb.finSeq = tcb.sndNxt
	tcb.sndNxt++
	tcb.rexmitQ.PushBack(sg)
	if !tcb.timerSet[timerRexmit] {
		c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: c.currentRTO()})
	}
	c.stateFinSent()
	c.queueSend(sg)
}

// sendPureAck emits an empty ACK segment. The acknowledgment debt is
// settled at decision time, not emission time, so a second Maybe_Send
// sitting behind this one on the to_do queue cannot emit a duplicate.
func (c *Conn) sendPureAck() {
	c.clearAckDebt()
	sg := c.t.pool.getAck()
	sg.srcPort, sg.dstPort = c.key.lport, c.key.rport
	sg.seq, sg.flags = c.tcb.sndNxt, flagACK
	c.queueSend(sg)
}

// clearAckDebt marks any pending acknowledgment as satisfied.
func (c *Conn) clearAckDebt() {
	tcb := c.tcb
	tcb.ackPending = false
	tcb.ackNow = false
	tcb.unackedSegs = 0
	c.clearTimer(timerDelayedAck)
}

// timingInFlight reports whether some unretransmitted segment on the
// queue is the current RTT sample.
func (c *Conn) timingInFlight() bool {
	timing := false
	c.tcb.rexmitQ.Do(func(sg *segment) {
		if sg.timed && sg.rexmits == 0 {
			timing = true
		}
	})
	return timing
}
