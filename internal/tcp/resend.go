package tcp

import "repro/internal/sim"

// This file is the paper's Resend module: it "implement[s] the round-trip
// time computations developed by Karn and Jacobson, and … remove[s]
// acknowledged segments from the retransmit queue."

// ackAdvance processes an acknowledgment that advances snd_una: pop
// fully-covered segments off the retransmission queue, take an RTT sample
// from an untransmitted-once segment (Karn's rule), move the congestion
// window, and restart or clear the retransmission timer.
func (c *Conn) ackAdvance(ack seq) {
	tcb := c.tcb
	now := c.t.s.Now()
	acked := seqSub(ack, tcb.sndUna)
	for {
		front, ok := tcb.rexmitQ.Front()
		if !ok {
			break
		}
		if seqGT(front.seq+seq(front.seqLen()), ack) {
			break
		}
		if front.timed && front.rexmits == 0 {
			c.rttSample(sim.Duration(now - front.sentAt))
		}
		tcb.rexmitQ.PopFront()
		front.retired = true
		c.t.recycle(front)
	}
	tcb.sndUna = ack
	tcb.lastProgress = now
	tcb.backoff = 0
	tcb.dupAcks = 0

	if c.t.cfg.congestionControl() {
		switch {
		case tcb.recovery == recoveryNone:
			c.openCwnd()
		case seqGEQ(ack, tcb.recover):
			c.endRecovery()
		default:
			c.partialAck(acked)
		}
	}

	if tcb.finSent && seqGT(ack, tcb.finSeq) {
		c.stateOurFinAcked()
	}

	if tcb.rexmitQ.Empty() {
		c.enqueue(action{kind: actClearTimer, which: timerRexmit})
	} else {
		c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: c.currentRTO()})
	}
	// Acknowledged data may have opened room in the usable window.
	c.enqueue(action{kind: actMaybeSend})
}

// openCwnd grows the congestion window for one acknowledgment: by an MSS
// in slow start, by MSS²/cwnd in congestion avoidance.
func (c *Conn) openCwnd() {
	tcb := c.tcb
	mss := tcb.mss32()
	if tcb.cwnd < tcb.ssthresh {
		tcb.cwnd += mss // slow start
	} else {
		inc := mss * mss / tcb.cwnd // congestion avoidance
		if inc == 0 {
			inc = 1
		}
		tcb.cwnd += inc
	}
	if tcb.cwnd > 1<<20 {
		tcb.cwnd = 1 << 20
	}
}

// endRecovery handles the ACK that reaches recover: every hole of the
// flight that was out when the loss was detected has been repaired. Fast
// recovery deflates the window it inflated (RFC 6582 §3.2 step 3, the
// first option: min(ssthresh, max(FlightSize, SMSS) + SMSS)); recovery
// after a timeout was slow start all along and goes on growing.
func (c *Conn) endRecovery() {
	tcb := c.tcb
	if tcb.recovery == recoveryFast {
		mss := tcb.mss32()
		tcb.cwnd = min(tcb.ssthresh, max(tcb.flightSize(), mss)+mss)
	} else {
		c.openCwnd()
	}
	tcb.recovery = recoveryNone
}

// partialAck handles an ACK that advances snd_una but stops short of
// recover (RFC 6582 §3.2 step 4): the segment now at the front is the
// next hole, so it is retransmitted at once instead of waiting for the
// timer. In fast recovery the window deflates by the data acknowledged
// and grows back one MSS when that was at least one; after a timeout the
// window keeps slow-starting.
func (c *Conn) partialAck(acked uint32) {
	tcb := c.tcb
	if tcb.recovery == recoveryFast {
		mss := tcb.mss32()
		cwnd := tcb.cwnd - min(acked, tcb.cwnd)
		if acked >= mss {
			cwnd += mss
		}
		tcb.cwnd = max(cwnd, mss)
	} else {
		c.openCwnd()
	}
	if front, ok := tcb.rexmitQ.Front(); ok {
		c.retransmit(front, evFastRexmit, 0)
	}
}

// retransmit queues the send of a segment already on the retransmission
// queue, marking it so it yields no RTT sample (Karn), and notes ev with
// the segment's seq and b.
func (c *Conn) retransmit(sg *segment, ev noted, b int64) {
	sg.rexmits++
	sg.sentAt = c.t.s.Now()
	c.note(ev, int64(sg.seq), b)
	c.queueSend(sg)
}

// rttSample folds one round-trip measurement into the smoothed estimator
// (Jacobson 1988: srtt += err/8, rttvar += (|err|-rttvar)/4,
// rto = srtt + 4*rttvar).
func (c *Conn) rttSample(m sim.Duration) {
	tcb := c.tcb
	if m <= 0 {
		return
	}
	if tcb.srtt == 0 {
		tcb.srtt = m
		tcb.rttvar = m / 2
	} else {
		err := m - tcb.srtt
		tcb.srtt += err / 8
		if err < 0 {
			err = -err
		}
		tcb.rttvar += (err - tcb.rttvar) / 4
	}
	tcb.rto = tcb.srtt + 4*tcb.rttvar
	if tcb.rto < c.t.cfg.MinRTO {
		tcb.rto = c.t.cfg.MinRTO
	}
	if tcb.rto > c.t.cfg.MaxRTO {
		tcb.rto = c.t.cfg.MaxRTO
	}
	c.t.observeRTT(m, tcb.srtt)
}

// currentRTO applies the exponential backoff to the base RTO, capped at
// BackoffCeiling (fill clamps the ceiling to MaxRTO, so this is the
// tighter of the two bounds). The ceiling is what bounds recovery time
// after a partition heals: however maxed the exponential got during the
// outage, the next retransmission is at most one ceiling away.
func (c *Conn) currentRTO() sim.Duration {
	d := c.tcb.rto << c.tcb.shiftBackoff()
	if d > c.t.cfg.BackoffCeiling {
		d = c.t.cfg.BackoffCeiling
	}
	return d
}

// resendTimeout handles the retransmission timer: fail the connection if
// it has made no progress for the user timeout, otherwise back off and
// retransmit the earliest unacknowledged segment (Karn: mark it so it
// yields no RTT sample). The rest of the flight that was out stays
// recoverable without the timer: recover is set to snd_nxt, and every
// partial ACK below it retransmits the next hole.
func (c *Conn) resendTimeout() {
	tcb := c.tcb
	front, ok := tcb.rexmitQ.Front()
	if !ok {
		return // everything got acknowledged while the action sat queued
	}
	now := c.t.s.Now()
	if sim.Duration(now-tcb.lastProgress) >= c.t.cfg.UserTimeout {
		c.stateAbort(ErrProgressTimeout)
		return
	}
	tcb.backoff++
	if c.t.cfg.congestionControl() {
		c.congestionLoss()
		tcb.cwnd = tcb.mss32()
		tcb.recovery = recoveryTimeout
	}
	c.retransmit(front, evRexmitTimeout, int64(c.currentRTO()))
	c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: c.currentRTO()})
}

// congestionLoss is the reaction every loss shares (RFC 5681 eq. 4):
// ssthresh falls to half the flight, and recovery lasts until snd_una
// reaches what snd_nxt is now. The caller sets cwnd and the phase.
func (c *Conn) congestionLoss() {
	tcb := c.tcb
	mss := tcb.mss32()
	tcb.ssthresh = max(tcb.flightSize()/2, 2*mss)
	tcb.recover = tcb.sndNxt
	tcb.dupAcks = 0
}

// dupAck handles an acknowledgment that does not advance snd_una while
// data is in flight. Outside recovery the first two let limited transmit
// send new data (RFC 3042; TCB.sendWindow) and the third starts fast
// retransmit and fast recovery (RFC 5681 §3.2): the front segment goes
// again, ssthresh halves and cwnd = ssthresh + 3 MSS, the segments that
// have left the network. Each further duplicate in fast recovery is one
// more segment gone, and inflates cwnd by an MSS.
func (c *Conn) dupAck() {
	tcb := c.tcb
	c.note(evDupAck, 0, 0)
	if !c.t.cfg.congestionControl() {
		return
	}
	if tcb.recovery == recoveryFast {
		tcb.cwnd = min(tcb.cwnd+tcb.mss32(), 1<<20)
		return
	}
	tcb.dupAcks++
	// One fast retransmit per loss episode (RFC 6582 §3.2 step 2): while
	// recovery lasts — until snd_una reaches recover — duplicates start
	// nothing, so a storm of them (reordering, or a peer provoked into
	// challenge ACKs) retransmits at most once per flight.
	if tcb.dupAcks != 3 || tcb.recovery != recoveryNone {
		return
	}
	front, ok := tcb.rexmitQ.Front()
	if !ok {
		return
	}
	c.congestionLoss()
	tcb.cwnd = tcb.ssthresh + 3*tcb.mss32()
	tcb.recovery = recoveryFast
	c.retransmit(front, evFastRexmit, 0)
	c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: c.currentRTO()})
}

// persistTimeout probes a zero window with one byte of data beyond it so
// a lost window update cannot deadlock the connection.
func (c *Conn) persistTimeout() {
	tcb := c.tcb
	if tcb.sndWnd > 0 || (tcb.queuedBytes == 0 && !tcb.finQueued) {
		return // window opened or nothing left to say
	}
	// RFC 9293 §3.8.5: the user timeout governs zero-window probing
	// too. Without this a peer that vanished mid-zero-window (a
	// partition, a crashed host) would be probed forever, pinning the
	// connection's buffers and memory charges.
	if sim.Duration(c.t.s.Now()-tcb.lastProgress) >= c.t.cfg.UserTimeout {
		c.stateAbort(ErrProgressTimeout)
		return
	}
	if tcb.queuedBytes > 0 && tcb.flightSize() == 0 {
		probe := c.takeSegment(1, c.t.s.Now())
		tcb.sndNxt++
		tcb.rexmitQ.PushBack(probe)
		c.queueSend(probe)
		c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: c.currentRTO()})
	}
	tcb.backoff++
	c.enqueue(action{kind: actSetTimer, which: timerPersist, d: c.persistBackoff()})
}
