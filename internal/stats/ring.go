package stats

import (
	"fmt"
	"time"
)

// EventKind classifies a structured stack event.
type EventKind uint8

const (
	// EvStateTransition records a TCP state-machine move; the operands
	// are the states, Detail is "FROM -> TO".
	EvStateTransition EventKind = iota
	// EvRetransmit records a segment retransmission (timeout or fast).
	EvRetransmit
	// EvRTOBackoff records an exponential RTO backoff step.
	EvRTOBackoff
	// EvZeroWindow records the peer's window closing to zero (persist
	// timer armed).
	EvZeroWindow
	// EvRST records a reset sent or received; Detail says which.
	EvRST
	// EvChallengeACK records an RFC 5961 challenge ACK answering an
	// in-window-but-not-exact RST or SYN; Detail names the probe shape.
	EvChallengeACK
	// EvMemPressure records an endpoint memory-accounting state change;
	// the operands are the conditions, Detail is "FROM -> TO" over
	// normal/pressure/exhausted.
	EvMemPressure
)

func (k EventKind) String() string {
	switch k {
	case EvStateTransition:
		return "state"
	case EvRetransmit:
		return "rexmit"
	case EvRTOBackoff:
		return "backoff"
	case EvZeroWindow:
		return "zerowin"
	case EvRST:
		return "rst"
	case EvChallengeACK:
		return "challenge"
	case EvMemPressure:
		return "mem"
	}
	return "event?"
}

// Event is one entry in an EventRing. The ring stores the typed fields —
// the kind, the connection's name and two operands whose meaning the
// kind fixes (a state transition's from and to, a retransmission's
// sequence number and count) — so recording an event formats nothing.
// Events fills in KindS and Detail when the ring is read. At is a
// virtual-time timestamp in nanoseconds (sim.Time's representation); the
// stats package stays ignorant of the scheduler.
type Event struct {
	At     int64     `json:"at_ns"`
	Kind   EventKind `json:"-"`
	KindS  string    `json:"kind"`
	Conn   string    `json:"conn,omitempty"`
	A, B   int64     `json:"-"`
	Detail string    `json:"detail,omitempty"`
}

// String renders the event as one aligned report line.
func (e Event) String() string {
	conn := e.Conn
	if conn == "" {
		conn = "-"
	}
	return fmt.Sprintf("%12v %-8s %-24s %s", time.Duration(e.At), e.Kind, conn, e.Detail)
}

// describe renders an event's operands as its Detail text.
var describe = func(EventKind, int64, int64) string { return "" }

// DescribeEvents installs the function that renders an event's two
// operands as text. The layer that owns the event vocabulary
// (internal/tcp) calls it once, from an init function.
func DescribeEvents(f func(kind EventKind, a, b int64) string) { describe = f }

// EventRing is a fixed-size overwrite-oldest buffer of Events. It is
// plain (no atomics): every writer runs inside the quasi-synchronous
// executor where the scheduler's handoff protocol provides
// happens-before, and readers run on-scheduler or after Run returns.
// Add on a nil ring is a cheap no-op, matching the Tracer discipline.
type EventRing struct {
	buf  []Event
	next uint64 // total events ever added; next slot is next % len(buf)
}

// NewEventRing returns a ring holding the most recent n events.
func NewEventRing(n int) *EventRing {
	if n <= 0 {
		n = RingSize
	}
	return &EventRing{buf: make([]Event, n)}
}

// Add appends an event, overwriting the oldest when full.
func (r *EventRing) Add(at int64, kind EventKind, conn string, a, b int64) {
	if r == nil {
		return
	}
	r.buf[r.next%uint64(len(r.buf))] = Event{At: at, Kind: kind, Conn: conn, A: a, B: b}
	r.next++
}

// Len reports how many events the ring currently holds.
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Total reports how many events were ever added, including overwritten
// ones.
func (r *EventRing) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next
}

// Events returns the retained events oldest-first, as a copy with the
// text fields rendered.
func (r *EventRing) Events() []Event {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := r.next - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		e := r.buf[(start+i)%uint64(len(r.buf))]
		e.KindS = e.Kind.String()
		e.Detail = describe(e.Kind, e.A, e.B)
		out = append(out, e)
	}
	return out
}
