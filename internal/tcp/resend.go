package tcp

import "repro/internal/sim"

// This file is the paper's Resend module: it "implement[s] the round-trip
// time computations developed by Karn and Jacobson, and … remove[s]
// acknowledged segments from the retransmit queue."

// ackAdvance processes an acknowledgment that advances snd_una: pop
// fully-covered segments off the retransmission queue, take an RTT sample
// from an untransmitted-once segment (Karn's rule), grow the congestion
// window, and restart or clear the retransmission timer.
func (c *Conn) ackAdvance(ack seq) {
	tcb := c.tcb
	now := c.t.s.Now()
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
// yields no RTT sample).
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
	}
	front.rexmits++
	front.sentAt = now
	c.note(evRexmitTimeout, int64(front.seq), int64(c.currentRTO()))
	c.queueSend(front)
	c.enqueue(action{kind: actSetTimer, which: timerRexmit, d: c.currentRTO()})
}

// congestionLoss is the Tahoe reaction to loss: halve ssthresh and fall
// back to slow start.
func (c *Conn) congestionLoss() {
	tcb := c.tcb
	mss := tcb.mss32()
	half := tcb.flightSize() / 2
	if half < 2*mss {
		half = 2 * mss
	}
	tcb.ssthresh = half
	tcb.cwnd = mss
	tcb.dupAcks = 0
}

// dupAck handles an acknowledgment that does not advance snd_una while
// data is in flight; the third in a row triggers a fast retransmit.
func (c *Conn) dupAck() {
	tcb := c.tcb
	c.note(evDupAck, 0, 0)
	if !c.t.cfg.congestionControl() {
		return
	}
	tcb.dupAcks++
	if tcb.dupAcks != 3 {
		return
	}
	// One fast retransmit per loss episode (RFC 6582): congestionLoss
	// resets dupAcks, so without this guard every third duplicate ACK
	// would retransmit the same segment again — a storm when the peer is
	// being provoked into emitting challenge ACKs.
	if !seqGT(tcb.sndUna, tcb.recover) {
		return
	}
	front, ok := tcb.rexmitQ.Front()
	if !ok {
		return
	}
	tcb.recover = tcb.sndNxt
	c.congestionLoss()
	front.rexmits++
	front.sentAt = c.t.s.Now()
	c.note(evFastRexmit, int64(front.seq), 0)
	c.queueSend(front)
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
