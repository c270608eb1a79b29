package tcp

import (
	"time"

	"repro/internal/sim"
)

// Resource governance. A hostile or broken peer can try to make an
// endpoint buffer without bound: flood SYNs at a listener, open many
// connections and never read (send queues pin), or spray reassembly
// gaps so outOfOrder grows. Each queue is individually capped, and this
// file adds the endpoint-wide account in the style of Linux's tcp_mem:
// three states — normal, pressure, exhausted — with graceful shedding
// (shrunken advertised windows, refused embryonic connections) before
// anything grows without limit.

// memState is the endpoint memory-account condition.
type memState int

const (
	memNormal memState = iota
	memPressure
	memExhausted
)

// memAccount tracks bytes the endpoint buffers on behalf of peers:
// queued-but-unsent send data, out-of-order reassembly segments (plus
// per-segment overhead), and received-but-unread data. All mutation
// happens inside the quasi-synchronous executor or under the scheduler's
// handoff discipline, so plain fields suffice.
type memAccount struct {
	used       int
	limit      int // exhausted at or above this
	pressureAt int // pressure at or above this (3/4 of limit)
	state      memState
}

// memCharge adjusts the endpoint account by delta bytes (negative to
// release) and recomputes the tri-state.
func (t *TCP) memCharge(delta int) {
	m := &t.mem
	m.used += delta
	if m.used < 0 {
		// Release exceeding charge indicates an accounting bug; clamp so
		// the account fails toward caution rather than wrapping.
		m.used = 0
	}
	next := memNormal
	switch {
	case m.used >= m.limit:
		next = memExhausted
	case m.used >= m.pressureAt:
		next = memPressure
	}
	t.observeMem(m.used, m.state, next)
	m.state = next
}

// takeChallengeToken implements the RFC 5961 §10 challenge-ACK rate
// limit as a per-connection bucket: at most cfg.ChallengeACKLimit
// challenge ACKs per simulated second per connection. It reports
// whether a challenge ACK may be sent now.
//
// RFC 5961 sketches the limit as endpoint-wide, but a shared bucket is
// both an exploitable side channel and a nondeterminism. CVE-2016-5696
// showed an off-path attacker can probe a global counter through its
// exhaustion on an unrelated connection and infer another connection's
// sequence state — Linux's fix moved the bucket per-socket, and so does
// this stack. The same move is what keeps one connection's journal a
// closed system: whether a probe draws a challenge or a suppression
// depends only on that connection's own history, so sharded parallel
// replay (and the ROADMAP's sharded engine) stays deterministic
// per-shard.
func (c *Conn) takeChallengeToken() bool {
	tcb := c.tcb
	now := c.t.s.Now()
	if sim.Duration(now-tcb.challengeWindow) >= sim.Duration(time.Second) {
		tcb.challengeWindow = now
		tcb.challengeCount = 0
	}
	if tcb.challengeCount >= c.t.cfg.ChallengeACKLimit {
		return false
	}
	tcb.challengeCount++
	return true
}

// oooOverhead approximates the fixed cost of holding one out-of-order
// segment (struct, slice headers, queue slot) so that a gap bomb of
// 1-byte segments cannot evade a purely payload-counted cap.
const oooOverhead = 128

func oooCost(sg *segment) int { return len(sg.data) + oooOverhead }

// oooCharge accounts one segment entering the reassembly queue.
func (c *Conn) oooCharge(sg *segment) {
	n := oooCost(sg)
	c.tcb.oooBytes += n
	c.t.memCharge(n)
}

// oooRelease accounts one segment leaving the reassembly queue.
func (c *Conn) oooRelease(sg *segment) {
	n := oooCost(sg)
	c.tcb.oooBytes -= n
	c.t.memCharge(-n)
}

// join registers a freshly created embryonic connection in the
// listener's half-open table.
func (l *Listener) join(c *Conn) {
	c.listener = l
	l.halfOpen = append(l.halfOpen, c)
	c.note(evHalfOpen, 1, 0)
}

// leaveHalfOpen removes the connection from its listener's half-open
// table, if it is in one — called when the handshake completes
// (stateEstablish) and when the TCB is deleted, whichever comes first.
func (c *Conn) leaveHalfOpen() {
	l := c.listener
	if l == nil {
		return
	}
	c.listener = nil
	for i, hc := range l.halfOpen {
		if hc == c {
			copy(l.halfOpen[i:], l.halfOpen[i+1:])
			l.halfOpen[len(l.halfOpen)-1] = nil
			l.halfOpen = l.halfOpen[:len(l.halfOpen)-1]
			break
		}
	}
	c.note(evHalfOpen, -1, 0)
}

// evictOldestHalfOpen silently drops the listener's oldest embryonic
// connection to admit a newer SYN — the classic backlog-full policy.
// No RST is sent: under a spoofed flood the "peer" does not exist, and
// a real client's SYN retransmit will re-admit it.
func (l *Listener) evictOldestHalfOpen() {
	if len(l.halfOpen) == 0 {
		return
	}
	victim := l.halfOpen[0]
	victim.note(evSynQueueOverflow, 0, 0)
	victim.enqueue(action{kind: actDeleteTCB})
	victim.run()
}

// advertisedWindowFor maps the connection's receive window to the wire
// field under the endpoint's memory condition: under pressure at most
// one MSS (drains what is in flight, admits little more), when
// exhausted zero (peers park on persist timers instead of being reset).
func (c *Conn) advertisedWindowFor(w uint32) uint16 {
	switch c.t.mem.state {
	case memPressure:
		if w > c.tcb.mss32() {
			w = c.tcb.mss32()
		}
	case memExhausted:
		w = 0
	}
	return advertisedWindow(w)
}
