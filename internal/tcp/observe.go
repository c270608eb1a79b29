package tcp

// The observer seam. Everything this stack tells anyone about itself
// leaves through this file, and nothing else in the package knows who is
// listening. The protocol modules report what happened — an action
// crossed the executor's door, a segment came in or went out, the state
// machine moved, a point event fired — and the functions here feed the
// consumers that happen to be attached: the MIB counter set
// (Config.Metrics, Config.Harden; Stats is a view over it), the text
// trace, the Table 2 profile, the flight journal — which also holds the
// point events — and the telemetry plane.
//
// Every function declared here only observes: it reads the TCB, bumps
// counters the protocol never reads back, and writes to its sinks. None
// calls enqueue, run or perform, enters the Receive, Send or Resend
// modules, charges virtual time or arms a timer — that is what keeps a
// run bit-identical whichever sinks are attached, and the quasisync
// analyzer checks it for this file.

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/basis"
	"repro/internal/flight"
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// observer is the endpoint's observation state.
type observer struct {
	// door reports whether any sink watches the executor's door: a
	// flight journal, a telemetry plane or a tracer. Conn.enqueue and
	// Conn.run branch on it once; an unobserved endpoint pays that
	// branch and nothing else.
	door bool
	// args and delta are the flight recorder's reused encode scratch,
	// kept here so the journaling path allocates nothing in steady state.
	args  []byte
	delta []byte
}

// observeInit resolves the configured sinks and writes the journal's
// run header. Called once, from New.
func (t *TCP) observeInit() {
	cfg := &t.cfg
	if cfg.Metrics == nil {
		cfg.Metrics = new(stats.TCPMIB)
	}
	if cfg.Harden == nil {
		cfg.Harden = new(stats.HardenMIB)
	}
	if cfg.DirectDispatch {
		// With the to_do queue bypassed there is no door to journal or
		// to time.
		cfg.Flight, cfg.Telemetry = nil, nil
	}
	t.obs.door = cfg.Flight != nil || cfg.Telemetry != nil || cfg.Trace != nil
	if fr := cfg.Flight; fr != nil {
		if cj, err := json.Marshal(t.journalConfig()); err == nil {
			fr.Hdr(t.net.LocalAddr().String(), t.net.MTU(), cj)
		}
	}
}

// Stats returns a snapshot of the endpoint counters: a view over the
// one counter set, Config.Metrics and Config.Harden.
func (t *TCP) Stats() Stats {
	m := t.cfg.Metrics
	out, rex := m.OutSegs.Load(), m.RetransSegs.Load()
	errs, csum := m.InErrs.Load(), m.InCsumErrs.Load()
	return Stats{
		SegsSent:         out + rex,
		SegsReceived:     m.InSegs.Load() - errs,
		BytesSent:        m.OutDataBytes.Load(),
		BytesReceived:    m.InDataBytes.Load(),
		Retransmits:      rex,
		FastPathIn:       m.InFastPath.Load(),
		SlowPathIn:       m.InSlowPath.Load(),
		BadChecksum:      csum,
		BadSegment:       errs - csum,
		DupAcksSeen:      m.InDupAcks.Load(),
		OutOfOrder:       m.InOutOfOrder.Load(),
		RSTSent:          m.OutRsts.Load(),
		RSTReceived:      m.InRsts.Load(),
		AcksDelayed:      m.DelayedAcks.Load(),
		ConnsOpened:      m.ActiveOpens.Load(),
		ConnsAccepted:    m.Accepts.Load(),
		UnknownDest:      m.InNoConns.Load(),
		ProgressTimeouts: t.cfg.Harden.ProgressTimeouts.Load(),
	}
}

// --- the door ------------------------------------------------------------

// stamp is what an observed enqueue leaves for its drain: the journal
// sequence number of the enq record and the virtual time of entry.
type stamp struct {
	seq uint64
	at  int64
}

// observeAttach gives a fresh connection its door state: the stamp
// queue that pairs enqueues with drains, in to_do's FIFO order.
func (t *TCP) observeAttach(c *Conn) {
	if t.obs.door {
		c.watch = new(basis.FIFO[stamp])
	}
}

// observeEnqueue sees one action enter to_do.
//
//foxvet:hotpath
func (c *Conn) observeEnqueue(a action) {
	t := c.t
	st := stamp{at: int64(t.s.Now())}
	if fr := t.cfg.Flight; fr != nil {
		t.obs.args = appendActionArgs(t.obs.args[:0], a)
		st.seq = fr.Enqueue(st.at, c.name, actionName(a), t.obs.args)
	}
	c.watch.Enqueue(st)
}

// span carries one action's observation from observeBegin to observeEnd.
type span struct {
	seq    uint64
	pre    tcbSnap
	vstart int64
	wstart time.Time
}

// observeBegin sees the executor take an action off to_do: the journal
// gets its beg record and the action becomes the current cause, the
// plane gets the enqueue→perform wait.
//
//foxvet:hotpath
func (c *Conn) observeBegin(a action) (sp span) {
	t := c.t
	st, _ := c.watch.Dequeue()
	sp.seq, sp.vstart = st.seq, int64(t.s.Now())
	if tr := t.cfg.Trace; tr.On() {
		tr.Printf("conn %v: %s (queue %d)", c.key, actionName(a), c.tcb.toDo.Len())
	}
	if fr := t.cfg.Flight; fr != nil {
		fr.Beg(sp.vstart, c.name, sp.seq)
		fr.Begin(flight.CauseAct, sp.seq)
		sp.pre = c.snapTCB()
	}
	if tl := t.cfg.Telemetry; tl != nil {
		tl.Action.Observe(uint64(sp.vstart - st.at))
		sp.wstart = time.Now()
	}
	return sp
}

// observeEnd sees the action finish: the journal gets the changed-field
// TCB delta — the paper's test-by-TCB-comparison applied to every
// action, and what flight.Series reads — and the plane the action's
// virtual and wall cost.
//
//foxvet:hotpath
func (c *Conn) observeEnd(a action, sp *span) {
	t := c.t
	if fr := t.cfg.Flight; fr != nil {
		fr.EndCause()
		post := c.snapTCB()
		t.obs.delta = appendSnapDelta(t.obs.delta[:0], &sp.pre, &post)
		fr.End(c.name, sp.seq, t.obs.delta)
	}
	if tl := t.cfg.Telemetry; tl != nil {
		tl.Prof.Record(a.kind, int64(t.s.Now())-sp.vstart, time.Since(sp.wstart).Nanoseconds())
	}
}

// --- entries to the executor ---------------------------------------------

// entryKind says on whose behalf a thread is about to enqueue and drain.
type entryKind uint8

const (
	enterPacket entryKind = iota // a segment arrived
	enterTimer                   // a timer expired; n is its id
	enterOpen                    // user calls; n is the byte count
	enterWrite
	enterRead
	enterClose
	enterAbort
	enterUrgent
)

// userOps are the journal's names for the user calls.
var userOps = [...]string{
	enterOpen: "open", enterWrite: "write", enterRead: "read",
	enterClose: "close", enterAbort: "abort", enterUrgent: "wurg",
}

// entry is what observeEnter hands to observeLeave.
type entry struct{ sec *profile.Section }

// observeEnter opens one entry to the executor: a Table 2 TCP section,
// and in the journal the cause every enqueue until observeLeave is
// attributed to — the arriving segment's digest, the timer's id, or a
// record of the user call.
func (t *TCP) observeEnter(c *Conn, k entryKind, n int, sg *segment) entry {
	e := entry{sec: t.cfg.Prof.Start(profile.CatTCP)}
	if fr := t.cfg.Flight; fr != nil {
		switch k {
		case enterPacket:
			fr.BeginPkt(uint32(sg.seq), uint32(sg.ack), sg.flags, sg.wnd, sg.up, sg.mss, len(sg.data))
		case enterTimer:
			fr.Begin(flight.CauseTimer, uint64(n))
		default:
			fr.Begin(flight.CauseUser, fr.UserOp(int64(t.s.Now()), c.name, userOps[k], n))
			if k == enterOpen {
				t.journalOpen(fr, c, "active")
			}
		}
	}
	return e
}

// observeLeave closes the entry.
func (t *TCP) observeLeave(e entry) {
	t.cfg.Flight.EndCause()
	e.sec.Stop()
}

// observeAccept sees a listener create a connection for an arriving
// segment.
func (t *TCP) observeAccept(c *Conn) {
	t.cfg.Metrics.Accepts.Inc()
	if fr := t.cfg.Flight; fr != nil {
		t.journalOpen(fr, c, "passive")
	}
}

// journalOpen records a connection's creation, attributed to whatever
// cause is current: the user's open call, or the packet that hit the
// listener.
func (t *TCP) journalOpen(fr *flight.Recorder, c *Conn, origin string) {
	fr.OpenConn(int64(t.s.Now()), c.name, origin,
		c.key.raddr.String(), c.key.rport, c.key.lport,
		c.handler.Data == nil, c.listener != nil)
}

// observeUserStart and observeUserDone time one blocking Read or Write
// for the plane, flow-control stalls included.
func (t *TCP) observeUserStart() sim.Time {
	if t.cfg.Telemetry == nil {
		return 0
	}
	return t.s.Now()
}

func (t *TCP) observeUserDone(k entryKind, start sim.Time) {
	tl := t.cfg.Telemetry
	if tl == nil {
		return
	}
	h := &tl.Read
	if k == enterWrite {
		h = &tl.Write
	}
	h.Observe(uint64(t.s.Now() - start))
}

// --- segments, state, memory, round trips --------------------------------

// observeSegIn sees one internalized segment, or the error that dropped
// it. RFC 2012: InSegs counts every arrival, InErrs the errored subset.
//
//foxvet:hotpath
func (t *TCP) observeSegIn(src protocol.Address, sg *segment, err error) {
	m := t.cfg.Metrics
	m.InSegs.Inc()
	if err != nil {
		m.InErrs.Inc()
		if err == errBadChecksum {
			m.InCsumErrs.Inc()
		}
		if tr := t.cfg.Trace; tr.On() {
			tr.Printf("rx dropped: %v", err)
		}
		return
	}
	if tr := t.cfg.Trace; tr.On() {
		tr.Printf("rx %v %s", src, sg)
	}
}

// observeSegOut sees one segment leave; c is nil for a reset sent
// outside any connection. RFC 2012 splits output: OutSegs excludes
// retransmissions, which RetransSegs counts; a segment re-emitted from
// the retransmission queue has rexmits > 0.
//
//foxvet:hotpath
func (t *TCP) observeSegOut(c *Conn, dst protocol.Address, sg *segment) {
	m := t.cfg.Metrics
	if sg.has(flagRST) {
		m.OutRsts.Inc()
		what := rstSent
		if c == nil {
			what = rstSentNoConn
		}
		t.event(EventRST, c, what, 0)
	}
	if sg.rexmits > 0 {
		m.RetransSegs.Inc()
		c.tcb.rexmits++
	} else {
		m.OutSegs.Inc()
		if c != nil {
			c.tcb.segsOut++
		}
	}
	if tr := t.cfg.Trace; tr.On() {
		tr.Printf("tx %v %s", dst, sg)
	}
}

// inEstabGroup reports whether a state counts toward RFC 2012's
// tcpCurrEstab (ESTABLISHED or CLOSE-WAIT).
func inEstabGroup(s State) bool { return s == StateEstab || s == StateCloseWait }

// observeState sees every move of the state machine — setState is the
// single door for them — which keeps the RFC 2012 connection-table
// counters exact by construction.
func (c *Conn) observeState(from, to State) {
	m := c.t.cfg.Metrics
	if inEstabGroup(from) != inEstabGroup(to) {
		if inEstabGroup(to) {
			m.CurrEstab.Inc()
		} else {
			m.CurrEstab.Dec()
		}
	}
	switch to {
	case StateSynSent:
		m.ActiveOpens.Inc()
	case StateSynPassive:
		m.PassiveOpens.Inc()
	case StateClosed, StateListen:
		switch from {
		case StateSynSent, StateSynActive, StateSynPassive:
			m.AttemptFails.Inc()
		case StateEstab, StateCloseWait:
			m.EstabResets.Inc()
		}
	}
	c.t.event(EventState, c, int64(from), int64(to))
}

// observeMem sees the endpoint memory account after every charge, and
// its tri-state when that moves.
func (t *TCP) observeMem(used int, from, to memState) {
	h := t.cfg.Harden
	h.MemBytes.Set(int64(used))
	if from == to {
		return
	}
	switch {
	case to == memExhausted:
		h.MemExhaustedEnter.Inc()
	case to == memPressure && from == memNormal:
		h.MemPressureEnter.Inc()
	case to == memNormal:
		h.MemPressureExit.Inc()
	}
	t.event(EventMem, nil, int64(from), int64(to))
}

// observeRTT sees one round-trip measurement Karn's rule admitted and
// the smoothed estimate it produced.
func (t *TCP) observeRTT(m, srtt sim.Duration) {
	t.cfg.Metrics.RttUsec.Observe(uint64(srtt / time.Microsecond))
	if tl := t.cfg.Telemetry; tl != nil {
		tl.RTT.Observe(uint64(m))
	}
}

// --- point events ----------------------------------------------------------

// noted names one thing that can happen inside the protocol modules that
// somebody counts or records. Each carries up to two integer operands.
type noted uint8

const (
	evFastPathIn       noted = iota // segment handled by header prediction
	evSlowPathIn                    // segment took the full receive DAG
	evRstIn                         // RST seen on a connection, not acted on
	evRstAccepted                   // exact-sequence RST: the connection resets
	evOutOfOrder                    // data segment held for reassembly
	evOOOEvicted                    // reassembly queue evicted its newest segment
	evDupAck                        // duplicate ACK with data in flight
	evDelivered                     // a bytes delivered in order to the user
	evSegmentized                   // a bytes of new data handed to the wire
	evAckDelayed                    // the delayed-ACK timer sent the ACK
	evRexmitTimeout                 // RTO retransmission of seq a; the timeout is now b ns
	evFastRexmit                    // fast retransmission of seq a
	evProgressTimeout               // user timeout after a retransmits or zero-window probes
	evZeroWindow                    // peer's window closed; persist timer armed
	evChallengeAck                  // RFC 5961 challenge ACK sent; a is the challenge* reason
	evChallengeMuted                // challenge ACK withheld by the rate limit
	evOOWAckMuted                   // out-of-window re-ACK withheld by the rate limit
	evNoConn                        // segment for no connection and no listener
	evSynDropped                    // SYN refused under memory pressure
	evSynQueueOverflow              // oldest half-open connection evicted
	evHalfOpen                      // half-open table grew or shrank by a
)

// Point-event kinds, as journaled in an ev record's "ek"; each fixes
// what the record's two operands mean.
const (
	EventState      = "state"     // the state machine moved from State(a) to State(b)
	EventRexmit     = "rexmit"    // seq a retransmitted; b is its timeout count, 0 for fast
	EventBackoff    = "backoff"   // RTO backoff reached a; the timeout is now b ns
	EventZeroWindow = "zerowin"   // peer's window closed; persist timer armed
	EventRST        = "rst"       // a reset, sent or received (a indexes rstDetail)
	EventChallenge  = "challenge" // RFC 5961 challenge ACK (a indexes challengeDetail)
	EventMem        = "mem"       // memory account moved from state a to b (normal/pressure/exhausted)
)

// Operands of the EventRST and EventChallenge events.
const (
	rstSent int64 = iota
	rstReceived
	rstSentNoConn
)

const (
	challengeRST int64 = iota
	challengeSYN
	challengeStaleAck
)

var (
	rstDetail       = [...]string{"sent", "received", "sent (no connection)"}
	challengeDetail = [...]string{"in-window RST", "in-window SYN", "stale ACK"}
	memStateNames   = [...]string{"normal", "pressure", "exhausted"}
)

// note reports a point event on connection c.
func (c *Conn) note(ev noted, a, b int64) { c.t.note(ev, c, a, b) }

// note reports a point event; c is nil for endpoint-wide ones. This is
// the one place that knows which counter follows which event.
func (t *TCP) note(ev noted, c *Conn, a, b int64) {
	m, h := t.cfg.Metrics, t.cfg.Harden
	switch ev {
	case evFastPathIn:
		m.InFastPath.Inc()
	case evSlowPathIn:
		m.InSlowPath.Inc()
	case evRstIn:
		m.InRsts.Inc()
	case evRstAccepted:
		m.InRsts.Inc()
		t.event(EventRST, c, rstReceived, 0)
	case evOutOfOrder:
		m.InOutOfOrder.Inc()
	case evOOOEvicted:
		h.OOOEvictions.Inc()
	case evDupAck:
		m.InDupAcks.Inc()
		c.tcb.dupAcksSeen++
	case evDelivered:
		m.InDataBytes.Add(uint64(a))
		c.tcb.bytesIn += uint64(a)
	case evSegmentized:
		m.OutDataBytes.Add(uint64(a))
		c.tcb.bytesOut += uint64(a)
	case evAckDelayed:
		m.DelayedAcks.Inc()
	case evRexmitTimeout:
		// The retransmitted segment is the queue's front; its count and
		// the connection's backoff say how deep the episode is.
		if front, ok := c.tcb.rexmitQ.Front(); ok {
			t.event(EventRexmit, c, a, int64(front.rexmits))
		}
		if c.tcb.backoff > 1 {
			t.event(EventBackoff, c, int64(c.tcb.backoff), b)
		}
	case evFastRexmit:
		t.event(EventRexmit, c, a, 0)
	case evProgressTimeout:
		h.ProgressTimeouts.Inc()
	case evZeroWindow:
		t.event(EventZeroWindow, c, 0, 0)
	case evChallengeAck:
		h.ChallengeACKsSent.Inc()
		t.event(EventChallenge, c, a, 0)
	case evChallengeMuted:
		h.ChallengeACKsSuppressed.Inc()
	case evOOWAckMuted:
		h.OOWAcksSuppressed.Inc()
	case evNoConn:
		m.InNoConns.Inc()
	case evSynDropped:
		h.SynDropsPressure.Inc()
	case evSynQueueOverflow:
		h.SynQueueOverflows.Inc()
	case evHalfOpen:
		h.HalfOpen.Add(a)
	}
}

// event hands one point event to the journal and the trace. The journal
// stores the operands as they are — DescribeEvent renders them when the
// record is read — and a tracer that is off formats nothing.
func (t *TCP) event(kind string, c *Conn, a, b int64) {
	name := ""
	if c != nil {
		name = c.name
	}
	if fr := t.cfg.Flight; fr != nil {
		fr.Event(int64(t.s.Now()), name, kind, a, b)
	}
	if tr := t.cfg.Trace; tr.On() {
		tr.Printf("conn %s: %s %s", name, kind, DescribeEvent(kind, a, b))
	}
}

// DescribeEvent renders a point event's operands as text.
func DescribeEvent(kind string, a, b int64) string {
	switch kind {
	case EventState:
		return State(a).String() + " -> " + State(b).String()
	case EventRexmit:
		if b == 0 {
			return fmt.Sprintf("fast seq %d", a)
		}
		return fmt.Sprintf("timeout seq %d #%d", a, b)
	case EventBackoff:
		return fmt.Sprintf("backoff %d rto %v", a, time.Duration(b))
	case EventZeroWindow:
		return "persist timer armed"
	case EventRST:
		return pick(rstDetail[:], a)
	case EventChallenge:
		return pick(challengeDetail[:], a)
	case EventMem:
		return pick(memStateNames[:], a) + " -> " + pick(memStateNames[:], b)
	}
	return ""
}

// --- action names ---------------------------------------------------------

// timerActionNames holds the labels of the three timer actions, which
// carry the timer's name: "Set_Timer(rexmit)". Built once so labelling
// an action never formats.
var timerActionNames = func() (names [telemetry.NumActKinds][numTimers]string) {
	for _, k := range []telemetry.ActKind{telemetry.ActSetTimer, telemetry.ActClearTimer, telemetry.ActTimerExpired} {
		for id := timerID(0); id < numTimers; id++ {
			names[k][id] = k.String() + "(" + id.String() + ")"
		}
	}
	return names
}()

// actionName is an action's label in the journal and the trace.
func actionName(a action) string {
	switch a.kind {
	case actSetTimer, actClearTimer, actTimerExpired:
	default:
		return a.kind.String()
	}
	if a.which < 0 || a.which >= numTimers {
		return a.kind.String() + "(invalid)"
	}
	return timerActionNames[a.kind][a.which]
}

func pick(names []string, i int64) string {
	if i < 0 || i >= int64(len(names)) {
		return "?"
	}
	return names[i]
}
