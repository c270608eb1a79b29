package tcp

import (
	"repro/internal/basis"
	"repro/internal/sim"
	"repro/internal/timers"
)

// State is the connection state of RFC 793's state machine, with the
// paper's refinement (Fig. 6) of splitting Syn_Received into the active-
// and passive-open variants Syn_Active and Syn_Passive.
type State int

const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynActive  // Syn_Received reached from an active open
	StateSynPassive // Syn_Received reached from a passive open
	StateEstab
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"Closed", "Listen", "Syn_Sent", "Syn_Active", "Syn_Passive", "Estab",
	"Fin_Wait_1", "Fin_Wait_2", "Close_Wait", "Closing", "Last_Ack", "Time_Wait",
}

// String returns the paper's constructor name for the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "invalid"
	}
	return stateNames[s]
}

// synchronized reports whether the state is past the three-way handshake.
func (s State) synchronized() bool {
	return s >= StateEstab
}

// timerID names the per-connection timers the Action module manages.
type timerID int

const (
	timerRexmit timerID = iota
	timerDelayedAck
	timerPersist
	timerTimeWait
	timerUser
	timerKeepalive
	numTimers
)

var timerNames = [numTimers]string{"rexmit", "delayed-ack", "persist", "time-wait", "user", "keepalive"}

func (t timerID) String() string {
	if t < 0 || t >= numTimers {
		return "invalid"
	}
	return timerNames[t]
}

// recoveryPhase is how a connection is recovering from loss.
type recoveryPhase uint8

const (
	recoveryNone    recoveryPhase = iota
	recoveryFast                  // fast recovery: cwnd inflated by duplicate ACKs
	recoveryTimeout               // after an RTO: slow start, partial ACKs fill the holes
)

// sendItem is one element of the queue of user data awaiting
// segmentation (the paper's `queued: Send_Packet.T D.T ref`).
type sendItem struct {
	data []byte
}

// TCB is the Transmission Control Block (Fig. 6): every variable RFC 793
// names, the send and receive queues, and — the paper's central design
// element — the to_do queue holding "the actions that must be done on
// behalf of this TCP connection".
type TCB struct {
	// Send sequence space (RFC 793 §3.2).
	iss    seq
	sndUna seq
	sndNxt seq
	sndWnd uint32
	sndUp  seq
	sndWl1 seq // seq of the segment used for the last window update
	sndWl2 seq // ack of the segment used for the last window update
	maxWnd uint32

	// Receive sequence space.
	irs    seq
	rcvNxt seq
	rcvWnd uint32
	rcvUp  seq

	// Effective send MSS (min of ours and the peer's announced MSS).
	mss int

	// Outgoing user data not yet segmentized, and its total bytes.
	queued      basis.Deque[sendItem]
	queuedBytes int
	queuedFront int // bytes of queued's front item already consumed

	// Retransmission queue: segments sent but not fully acknowledged.
	rexmitQ basis.Deque[*segment]

	// Out-of-order segments held for later (the paper's
	// `out_of_order: tcp_in Q.T ref`), kept sorted by seq. oooBytes is
	// the queue's accounted cost (payload plus per-segment overhead),
	// bounded by Config.ReassemblyLimit.
	outOfOrder []*segment
	oooBytes   int

	// to_do contains the actions to perform.
	toDo basis.FIFO[action]

	// Round-trip timing (Resend module; Karn & Jacobson).
	srtt    sim.Duration
	rttvar  sim.Duration
	rto     sim.Duration
	backoff int

	// Congestion control, active when Config.CongestionControl is set:
	// Van Jacobson's slow start and congestion avoidance (RFC 5681) with
	// fast recovery, NewReno's partial ACKs (RFC 6582) and limited
	// transmit (RFC 3042) — recovery that needs no option and no timer
	// for a second hole in a window. recovery is the loss-recovery phase
	// and recover its end: sndNxt when the loss was detected. While it
	// lasts an ACK below recover is partial and retransmits the next hole
	// at once, and no duplicate ACK starts another fast retransmit, so a
	// storm of them — reordering, or an attacker provoking challenge
	// ACKs — triggers at most one retransmission per flight.
	cwnd     uint32
	ssthresh uint32
	dupAcks  int
	recover  seq
	recovery recoveryPhase

	// Timers, managed only by the Action module: one per slot, bound to
	// its expiration when the connection is made and re-armed in place.
	// timerSet means set since the last clear and stays true after an
	// expiry (the Send module arms rexmit, persist and delayed-ACK only
	// when it is false). armed mirrors which slots hold a live (set,
	// unexpired, uncleared) timer — the flight recorder journals it as a
	// bitmask so replay can audit timer state without depending on
	// wall-clock timer internals.
	timer    [numTimers]timers.Timer
	timerSet [numTimers]bool
	armed    [numTimers]bool

	// Delayed-ACK bookkeeping: ackPending means an ACK is owed and may
	// be delayed; ackNow forces it out on the next send pass;
	// unackedSegs counts segments since the last ACK (RFC 1122 wants an
	// ACK at least every second full segment).
	ackPending  bool
	ackNow      bool
	unackedSegs int

	// FIN bookkeeping.
	finQueued bool // user closed; FIN goes out when queued drains
	finSent   bool
	finSeq    seq // sequence number of our FIN, valid once finSent

	// Time of the most recent forward progress (ACK advancing sndUna),
	// for the user-timeout check.
	lastProgress sim.Time

	// lastAdvWnd is the receive window most recently advertised to the
	// peer, for deciding when a reopening is worth a volunteered update.
	lastAdvWnd uint32

	// Keepalive bookkeeping: when the peer was last heard from, and how
	// many successive probes have gone unanswered.
	lastRecv        sim.Time
	keepaliveProbes int

	// Urgent-mode bookkeeping: the sequence number one past the last
	// byte of urgent data queued by WriteUrgent (valid while
	// urgentPending).
	sndUpSeq      seq
	urgentPending bool

	// Per-connection RFC 5961 challenge-ACK token bucket (mem.go's
	// takeChallengeToken). Per-connection rather than endpoint-wide:
	// a shared bucket is an off-path side channel (CVE-2016-5696) and
	// couples otherwise-independent connections' journals.
	challengeWindow sim.Time
	challengeCount  int

	// Per-connection statistics (Conn.Stats). Plain fields: every writer
	// runs inside the quasi-synchronous executor, so the scheduler's
	// handoff discipline makes them race-free without atomics.
	bytesIn     uint64
	bytesOut    uint64
	segsIn      uint64
	segsOut     uint64
	rexmits     uint64
	dupAcksSeen uint64
	toDoHW      int // to_do queue depth high-water mark
}

// newTCB returns a TCB with the paper's configuration applied.
func newTCB(cfg *Config, now sim.Time) *TCB {
	t := &TCB{
		rcvWnd:       sat32(cfg.InitialWindow),
		maxWnd:       0,
		mss:          defaultMSS,
		rto:          cfg.InitialRTO,
		lastProgress: now,
	}
	return t
}

// flightSize is the amount of data sent but not yet acknowledged.
func (t *TCB) flightSize() uint32 { return seqSub(t.sndNxt, t.sndUna) }

// sat32 converts a byte count to the 32-bit window domain, saturating
// instead of wrapping: a negative count advertises nothing and anything
// past 2³²-1 pins to the most the field can say. Both branches are
// unreachable under the memory accounting; the clamp makes the bound
// local so intrange can prove the conversion lossless.
func sat32(n int) uint32 {
	if n < 0 {
		return 0
	}
	if n > 0xffffffff {
		return 0xffffffff
	}
	return uint32(n)
}

// mss32 returns the MSS in the 32-bit domain window arithmetic uses.
// The MSS is negotiated from a 16-bit wire option, so the clamp states
// the field's invariant rather than changing behavior.
func (t *TCB) mss32() uint32 {
	m := t.mss
	if m < 0 {
		m = 0
	}
	if m > 0xffff {
		m = 0xffff
	}
	return uint32(m)
}

// shiftBackoff returns the exponential-backoff shift clamped to [0,16].
// Past 2¹⁶ every RTO and persist cap has long since won, and Go defines
// a 64-bit shift by ≥64 as zero — which would turn the persist timer
// into a zero-delay livelock instead of a long wait.
func (t *TCB) shiftBackoff() uint {
	b := t.backoff
	if b < 0 {
		b = 0
	}
	if b > 16 {
		b = 16
	}
	return uint(b)
}

// sendWindow is the usable window: the peer's advertised window, further
// limited by the congestion window when congestion control is on. Limited
// transmit (RFC 3042) lets the first and second duplicate ACK outside
// recovery each clock out one new segment past cwnd: they say segments
// have left the network, though not yet that one was lost.
func (t *TCB) sendWindow(cc bool) uint32 {
	w := t.sndWnd
	if !cc {
		return w
	}
	cw := t.cwnd
	if n := t.dupAcks; n > 0 && n < 3 && t.recovery == recoveryNone {
		cw += uint32(n) * t.mss32()
	}
	return min(w, cw)
}

// queuePush appends user data for transmission.
func (t *TCB) queuePush(data []byte) {
	t.queued.PushBack(sendItem{data: data})
	t.queuedBytes += len(data)
}

// queueTake removes up to max bytes from the front of the send queue,
// copying them into dst (which must have length >= max). It returns the
// number of bytes taken. This is the send path's single data copy.
//
//foxvet:hotpath
func (t *TCB) queueTake(dst []byte, max int) int {
	if max < 0 {
		max = 0
	}
	taken := 0
	for taken < max {
		front, ok := t.queued.Front()
		if !ok {
			break
		}
		// The cursor is maintained inside the front buffer (PopFront
		// resets it); the clamp makes that invariant local to the
		// bounds proof.
		off := min(t.queuedFront, len(front.data))
		if off < 0 {
			off = 0
		}
		avail := front.data[off:]
		n := copy(dst[taken:max], avail)
		taken += n
		if n == len(avail) {
			t.queued.PopFront()
			t.queuedFront = 0
		} else {
			t.queuedFront += n
		}
	}
	t.queuedBytes -= taken
	return taken
}
