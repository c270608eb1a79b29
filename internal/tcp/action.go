package tcp

import (
	"time"

	"repro/internal/profile"
	"repro/internal/sim"
)

// This file is the paper's Action module: "the time-dependent operations
// … timers and segment externalization and internalization."
// (Internalization lives in TCP.handler / segment.unmarshal.)

// setTimer (re)starts one of the connection's timers. Expiration only
// enqueues a Timer_Expiration action and drains the queue — the
// asynchronous half of the quasi-synchronous structure.
func (c *Conn) setTimer(which timerID, d sim.Duration) {
	c.tcb.timerSet[which] = true
	c.tcb.armed[which] = true
	// Replayed endpoints never fire timers themselves — expirations come
	// from the journal — but the flags evolve exactly as they did live.
	if !c.t.replay {
		c.tcb.timer[which].Arm(d)
	}
}

// bindTimers gives each of the connection's timers its expiration.
func (c *Conn) bindTimers() {
	for i := range c.tcb.timer {
		which := timerID(i)
		c.tcb.timer[i].Bind(c.t.s, func() {
			e := c.enter(enterTimer, int(which))
			c.enqueue(action{kind: actTimerExpired, which: which})
			c.leave(e)
		})
	}
}

// clearTimer cancels a timer if it is set.
func (c *Conn) clearTimer(which timerID) {
	if c.tcb.timerSet[which] {
		c.tcb.timer[which].Clear()
		c.tcb.timerSet[which] = false
		c.tcb.armed[which] = false
	}
}

// timerExpired performs the synchronous part of a timer expiration.
func (c *Conn) timerExpired(which timerID) {
	c.tcb.armed[which] = false
	if c.deleted {
		return
	}
	switch which {
	case timerRexmit:
		c.resendTimeout()
	case timerDelayedAck:
		if c.tcb.ackPending {
			c.note(evAckDelayed, 0, 0)
			c.tcb.ackNow = true
			c.sendModule()
		}
	case timerPersist:
		c.persistTimeout()
	case timerTimeWait:
		// 2×MSL elapsed: the connection finally evaporates.
		c.enqueue(action{kind: actCompleteClose})
		c.enqueue(action{kind: actDeleteTCB})
	case timerUser:
		// Establishment (or close) took longer than the user timeout.
		c.stateAbort(ErrTimeout)
	case timerKeepalive:
		c.keepaliveExpired()
	}
}

// keepaliveExpired probes an idle connection (RFC 1122 §4.2.3.6): a
// zero-length segment with seq = snd_nxt-1 forces a duplicate ACK from a
// live peer. Any traffic from the peer resets the probe count.
func (c *Conn) keepaliveExpired() {
	tcb := c.tcb
	if !c.state.synchronized() || c.state == StateTimeWait {
		return
	}
	idle := sim.Duration(c.t.s.Now() - tcb.lastRecv)
	if idle < c.t.cfg.KeepaliveIdle {
		// Heard from the peer since the timer was set: re-arm for the
		// remainder rather than restarting the timer on every segment.
		c.enqueue(action{kind: actSetTimer, which: timerKeepalive, d: c.t.cfg.KeepaliveIdle - idle})
		return
	}
	if tcb.keepaliveProbes >= c.t.cfg.KeepaliveCount {
		c.stateAbort(ErrTimeout)
		return
	}
	tcb.keepaliveProbes++
	probe := &segment{
		srcPort: c.key.lport, dstPort: c.key.rport,
		seq: tcb.sndNxt - 1, flags: flagACK,
	}
	c.queueSend(probe)
	c.enqueue(action{kind: actSetTimer, which: timerKeepalive, d: c.t.cfg.KeepaliveIdle})
}

// emit externalizes one segment: view its packet over the payload (a
// data segment's own packet, on a retransmission exactly as on the first
// transmission; the endpoint's scratch packet for a payload-less one),
// write the header in place, checksum, and lend it to the lower layer.
//
//foxvet:hotpath
func (c *Conn) emit(sg *segment) {
	tcb := c.tcb
	// Outgoing segments always carry the freshest window — shrunk under
	// endpoint memory pressure — and, when synchronized, the freshest ack.
	sg.wnd = c.advertisedWindowFor(tcb.rcvWnd)
	if sg.has(flagACK) {
		sg.ack = tcb.rcvNxt
		tcb.lastAdvWnd = uint32(sg.wnd)
	}
	pkt := sg.pkt
	if pkt != nil {
		// The layers below pushed their headers and trailers over the
		// packet last time; the payload under them has not moved.
		pkt.Reset(c.t.pool.headroom(), len(sg.data))
	} else {
		pkt = c.t.pool.scratch()
	}
	compute := c.t.cfg.computeChecksums()
	var pseudo uint16
	if compute {
		pseudo = c.t.net.PseudoHeaderChecksum(c.key.raddr, sg.headerBytes()+len(sg.data))
	}
	cks := c.t.cfg.Prof.Start(profile.CatChecksum)
	sg.marshal(pkt, pseudo, compute)
	if compute {
		c.t.chargePerKB(c.t.cfg.DataPath.ChecksumPerKB, sg.headerBytes()+len(sg.data))
	}
	cks.Stop()

	// Sending any ACK satisfies a pending delayed ACK (retransmissions
	// included; first transmissions already settled at decision time).
	if sg.has(flagACK) {
		c.clearAckDebt()
	}
	c.t.observeSegOut(c, c.key.raddr, sg)
	c.t.net.Send(c.key.raddr, pkt)
	sg.sends--
	c.t.recycle(sg)
}

// chargePerKB charges the calibrated per-KB cost (Config.DataPath) for
// n bytes of a data-touching operation. Callers charge inside the
// profile section of the operation itself, so the time lands in its
// Table 2 row.
func (t *TCP) chargePerKB(perKB sim.Duration, n int) {
	if perKB != 0 && n != 0 {
		t.s.Charge(perKB * sim.Duration(n) / 1024)
	}
}

// advertisedWindow clamps the receive window into the 16-bit header
// field (no window scaling in 1994).
func advertisedWindow(w uint32) uint16 {
	if w > 0xffff {
		return 0xffff
	}
	return uint16(w)
}

// twoMSL is the TIME-WAIT duration.
func (c *Conn) twoMSL() sim.Duration { return 2 * c.t.cfg.MSL }

// persistBackoff returns the persist-probe interval for the current
// backoff count, doubling up to a minute or the configured
// BackoffCeiling, whichever is lower.
func (c *Conn) persistBackoff() sim.Duration {
	d := c.t.cfg.PersistInterval << c.tcb.shiftBackoff()
	if d > time.Minute {
		d = time.Minute
	}
	if d > c.t.cfg.BackoffCeiling {
		d = c.t.cfg.BackoffCeiling
	}
	return d
}
