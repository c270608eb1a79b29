package tcp

// Deterministic replay: re-execute a flight journal against a fresh
// endpoint and verify, at every drained action, that the reconstructed
// TCB evolves exactly as the recorded deltas say it did. This is the
// paper's test-by-TCB-comparison methodology applied to whole runs: the
// journal is the specification, the real Receive/Send/Resend/State code
// is the machine under test, and any disagreement — a nondeterminism, a
// state-machine bug, or journal corruption — surfaces as a Divergence.
//
// The driver re-injects only the journal's root causes: packet-caused
// enqueues are rebuilt from the recorded segment digests, timer-caused
// enqueues from the recorded timer ids, and user operations are mirrored
// from their uop records. Every other enqueue must be produced by the
// replayed machine itself, which the driver verifies by popping the real
// to_do queue at each beg record and comparing action name and
// arguments against the recorded enqueue.

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/basis"
	"repro/internal/flight"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// replayAddr is the lower-layer peer address stand-in; its String form
// is the recorded address text, so connection names match the journal.
type replayAddr string

func (a replayAddr) String() string { return string(a) }

// nullNet is the protocol.Network a replayed endpoint runs over: the
// recorded MTU (so MSS calculations match), no headroom, and a Send that
// drops everything — the journal already tells us what arrives.
type nullNet struct {
	mtu  int
	addr replayAddr
}

func (n *nullNet) LocalAddr() protocol.Address                       { return n.addr }
func (n *nullNet) Attach(h protocol.Handler)                         {}
func (n *nullNet) Send(protocol.Address, *basis.Packet) error        { return nil }
func (n *nullNet) MTU() int                                          { return n.mtu }
func (n *nullNet) Headroom() int                                     { return 0 }
func (n *nullNet) Tailroom() int                                     { return 0 }
func (n *nullNet) PseudoHeaderChecksum(protocol.Address, int) uint16 { return 0 }

// Divergence is one disagreement between the journal and the replayed
// machine.
type Divergence struct {
	Index int    // index of the journal record that exposed it
	Seq   uint64 // action sequence number involved, when known
	Conn  string
	What  string
}

func (d Divergence) String() string {
	return fmt.Sprintf("record %d, conn %s, action #%d: %s", d.Index, d.Conn, d.Seq, d.What)
}

// ReplayResult summarizes one journal's replay.
type ReplayResult struct {
	Host        string
	Records     int
	Actions     int // actions re-performed and delta-verified
	Conns       int // connections reconstructed
	Workers     int // shards used (0 for a serial replay)
	Divergences []Divergence
}

// replayExpect is one recorded enqueue awaiting its beg.
type replayExpect struct {
	seq    uint64
	action string
	args   string
}

// replayConn is the driver's per-connection bookkeeping around the real
// *Conn being replayed.
type replayConn struct {
	c       *Conn
	exp     []replayExpect // recorded enqueues, in order
	expHead int
	pending replayExpect // action whose beg has been seen
	inBeg   bool
	pre     tcbSnap
}

// ReplayJournal re-executes one host's journal. A non-nil error means
// the journal is structurally unusable (no header, bad config); a
// non-empty Divergences list means the journal and the machine disagree.
// Replay stops at the first diverging record.
func ReplayJournal(recs []flight.Record) (*ReplayResult, error) {
	if len(recs) == 0 || recs[0].Kind != flight.KindHdr {
		return nil, fmt.Errorf("journal does not start with a hdr record")
	}
	hdr := &recs[0]
	var rc recordedConfig
	if err := json.Unmarshal(hdr.Cfg, &rc); err != nil {
		return nil, fmt.Errorf("hdr config: %w", err)
	}
	if hdr.MTU <= headerLen {
		return nil, fmt.Errorf("hdr MTU %d is not a usable lower-layer MTU", hdr.MTU)
	}
	s := sim.New(sim.Config{})
	t := New(s, &nullNet{mtu: hdr.MTU, addr: "replay"}, rc.config())
	t.replay = true

	res := &ReplayResult{Host: hdr.Host, Records: len(recs)}
	conns := map[string]*replayConn{}
	var scratch []byte

	div := func(index int, seqN uint64, conn, format string, args ...any) {
		res.Divergences = append(res.Divergences, Divergence{
			Index: index, Seq: seqN, Conn: conn,
			What: fmt.Sprintf(format, args...),
		})
	}

	for i := 1; i < len(recs); i++ {
		if len(res.Divergences) > 0 {
			break
		}
		rec := &recs[i]
		// Charge the clock up to this record's timestamp. Replay can only
		// lag live time (live-only costs such as receive-side checksum
		// charges happen between records), so positive catch-up is exact.
		switch rec.Kind {
		case flight.KindOpen, flight.KindUop, flight.KindEnq, flight.KindBeg:
			if d := sim.Duration(sim.Time(rec.At) - s.Now()); d > 0 {
				s.Charge(d)
			}
		}
		switch rec.Kind {
		case flight.KindSeal:
			// Chain attestation, not machine history: foxreplay -verify
			// checks seals before replay ever starts.
			continue

		case flight.KindFault:
			// Scripted fault-plane timeline (internal/fault): pure
			// observation of what the wire was doing, not an action the
			// machine performed. Replay runs over a null net, so the
			// fault has already had its effect on the recorded history.
			continue

		case flight.KindHdr:
			div(i, 0, "", "duplicate hdr record")

		case flight.KindOpen:
			c, err := t.replayOpen(rec)
			if err != nil {
				div(i, rec.Seq, rec.Conn, "%v", err)
				continue
			}
			conns[rec.Conn] = &replayConn{c: c}

		case flight.KindUop:
			if rec.Op == "open" {
				// The open record that follows carries the connection.
				continue
			}
			rcn := conns[rec.Conn]
			if rcn == nil {
				div(i, rec.Seq, rec.Conn, "user %s on a connection the journal never opened", rec.Op)
				continue
			}
			if err := rcn.c.replayUop(rec); err != nil {
				div(i, rec.Seq, rec.Conn, "%v", err)
			}

		case flight.KindEnq:
			rcn := conns[rec.Conn]
			if rcn == nil {
				div(i, rec.Seq, rec.Conn, "enqueue %s on a connection the journal never opened", rec.Action)
				continue
			}
			// Root causes are re-injected by the driver; act/user-caused
			// enqueues must come from the machine itself and are only
			// checked off here.
			switch rec.CK {
			case flight.CausePkt:
				switch rec.Action {
				case "Process_Data":
					plen := rec.PLen
					if plen < 0 {
						div(i, rec.Seq, rec.Conn, "negative payload length %d in journal", plen)
						continue
					}
					sg := &segment{
						srcPort: rcn.c.key.rport,
						dstPort: rcn.c.key.lport,
						seq:     seq(rec.PSeq),
						ack:     seq(rec.PAck),
						flags:   rec.PFlag,
						wnd:     rec.PWnd,
						up:      rec.PUp,
						mss:     rec.PMSS,
						data:    make([]byte, plen),
					}
					rcn.c.enqueue(action{kind: actProcessData, seg: sg})
				case "Delete_TCB":
					// Half-open eviction under a SYN flood.
					rcn.c.enqueue(action{kind: actDeleteTCB})
				default:
					div(i, rec.Seq, rec.Conn, "packet-caused %s is not an action a packet can enqueue", rec.Action)
					continue
				}
			case flight.CauseTimer:
				which := timerID(rec.Timer)
				if which < 0 || which >= numTimers {
					div(i, rec.Seq, rec.Conn, "timer-caused enqueue names unknown timer %d", rec.Timer)
					continue
				}
				rcn.c.enqueue(action{kind: actTimerExpired, which: which})
			}
			rcn.exp = append(rcn.exp, replayExpect{seq: rec.Seq, action: rec.Action, args: rec.Args})

		case flight.KindBeg:
			rcn := conns[rec.Conn]
			if rcn == nil {
				div(i, rec.EqSeq, rec.Conn, "beg on a connection the journal never opened")
				continue
			}
			a, ok := rcn.c.tcb.toDo.Dequeue()
			if !ok {
				div(i, rec.EqSeq, rec.Conn, "journal performs action #%d but the replayed to_do queue is empty", rec.EqSeq)
				continue
			}
			if rcn.expHead >= len(rcn.exp) {
				div(i, rec.EqSeq, rec.Conn, "journal performs action #%d with no recorded enqueue", rec.EqSeq)
				continue
			}
			exp := rcn.exp[rcn.expHead]
			rcn.expHead++
			if exp.seq != rec.EqSeq {
				div(i, rec.EqSeq, rec.Conn, "journal performs action #%d but the next recorded enqueue is #%d", rec.EqSeq, exp.seq)
				continue
			}
			if name := actionName(a); name != exp.action {
				div(i, rec.EqSeq, rec.Conn, "replayed machine queued %s where the journal recorded %s", name, exp.action)
				continue
			}
			scratch = appendActionArgs(scratch[:0], a)
			if string(scratch) != exp.args {
				div(i, rec.EqSeq, rec.Conn, "replayed %s args %q differ from recorded %q", exp.action, scratch, exp.args)
				continue
			}
			rcn.pre = rcn.c.snapTCB()
			rcn.pending = exp
			rcn.inBeg = true
			rcn.c.perform(a)
			res.Actions++

		case flight.KindEnd:
			rcn := conns[rec.Conn]
			if rcn == nil || !rcn.inBeg || rcn.pending.seq != rec.EqSeq {
				div(i, rec.EqSeq, rec.Conn, "end record with no matching beg")
				continue
			}
			rcn.inBeg = false
			post := rcn.c.snapTCB()
			for name := range rec.Delta {
				if snapIndex(name) < 0 {
					div(i, rec.EqSeq, rec.Conn, "journal delta names unknown TCB field %q", name)
				}
			}
			for k, name := range snapNames {
				want, recorded := rec.Delta[name]
				switch {
				case recorded && (rcn.pre[k] != want[0] || post[k] != want[1]):
					div(i, rec.EqSeq, rec.Conn, "%s after %s: journal %d -> %d, replay %d -> %d",
						name, rcn.pending.action, want[0], want[1], rcn.pre[k], post[k])
				case !recorded && rcn.pre[k] != post[k]:
					div(i, rec.EqSeq, rec.Conn, "%s after %s: replay %d -> %d, journal records no change",
						name, rcn.pending.action, rcn.pre[k], post[k])
				}
			}

		default:
			div(i, rec.Seq, rec.Conn, "unknown record kind %q", rec.Kind)
		}
	}

	// A complete journal leaves nothing in flight: every enqueue
	// performed, every beg ended, every queue drained.
	if len(res.Divergences) == 0 {
		for name, rcn := range conns {
			if rcn.inBeg {
				div(len(recs), rcn.pending.seq, name, "journal ends inside action #%d", rcn.pending.seq)
			}
			if n := rcn.c.tcb.toDo.Len(); n > 0 {
				div(len(recs), 0, name, "journal ends with %d actions still queued", n)
			}
			if rcn.expHead != len(rcn.exp) {
				div(len(recs), rcn.exp[rcn.expHead].seq, name,
					"journal ends with %d recorded enqueues never performed", len(rcn.exp)-rcn.expHead)
			}
		}
	}
	res.Conns = len(conns)
	return res, nil
}

// ReplayJournalParallel is ReplayJournal sharded one worker per
// connection group: connections are dealt round-robin (by first
// appearance, so the assignment is deterministic) across up to
// `workers` goroutines, each of which replays its connections against
// its own private endpoint and scheduler, and the per-shard results are
// merged with divergence indices mapped back to the whole journal.
//
// Sharding by connection is sound because a connection's journal is a
// closed system: every cross-connection coupling the stack has is
// either per-connection by construction (the RFC 5961 challenge-ACK
// bucket — see takeChallengeToken), driver-injected from the journal
// (half-open evictions arrive as packet-caused Delete_TCB records), or
// invisible to the audited state (the memory account shapes only the
// advertised window, a wire field outside the TCB snapshot and the
// compared action args). This is the Laminar lesson in miniature:
// per-shard determinism is the property that lets the audit scale out.
func ReplayJournalParallel(recs []flight.Record, workers int) (*ReplayResult, error) {
	if workers <= 1 {
		return ReplayJournal(recs)
	}
	if len(recs) == 0 || recs[0].Kind != flight.KindHdr {
		return nil, fmt.Errorf("journal does not start with a hdr record")
	}
	shard := map[string]int{}
	buckets := make([][]flight.Record, workers)
	index := make([][]int, workers) // local record index -> journal index
	for w := range buckets {
		buckets[w] = append(buckets[w], recs[0])
		index[w] = append(index[w], 0)
	}
	next := 0
	for i := 1; i < len(recs); i++ {
		rec := &recs[i]
		if rec.Kind == flight.KindSeal || rec.Kind == flight.KindHdr || rec.Kind == flight.KindFault {
			continue
		}
		w, ok := shard[rec.Conn]
		if !ok {
			w = next % workers
			shard[rec.Conn] = w
			next++
		}
		buckets[w] = append(buckets[w], *rec)
		index[w] = append(index[w], i)
	}

	results := make([]*ReplayResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range buckets {
		if len(buckets[w]) <= 1 {
			continue // hdr only: no connections landed here
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = ReplayJournal(buckets[w])
		}(w)
	}
	wg.Wait()

	merged := &ReplayResult{Host: recs[0].Host, Records: len(recs), Workers: min(workers, next)}
	for w, r := range results {
		if errs[w] != nil {
			return merged, fmt.Errorf("shard %d: %w", w, errs[w])
		}
		if r == nil {
			continue
		}
		merged.Actions += r.Actions
		merged.Conns += r.Conns
		for _, d := range r.Divergences {
			if d.Index >= 0 && d.Index < len(index[w]) {
				d.Index = index[w][d.Index]
			} else {
				d.Index = len(recs) // completeness checks point past the end
			}
			merged.Divergences = append(merged.Divergences, d)
		}
	}
	sort.Slice(merged.Divergences, func(i, j int) bool {
		return merged.Divergences[i].Index < merged.Divergences[j].Index
	})
	return merged, nil
}

func snapIndex(name string) int {
	for i, n := range snapNames {
		if n == name {
			return i
		}
	}
	return -1
}

// replayOpen reconstructs a connection from its open record, running the
// same creation path the live endpoint ran (OpenFrom's core for active
// opens, dispatchUnknown's for passive ones) minus the asynchronous
// seams the journal replaces.
func (t *TCP) replayOpen(rec *flight.Record) (*Conn, error) {
	key := connKey{raddr: replayAddr(rec.RAddr), rport: rec.RPort, lport: rec.LPort}
	c := newConn(t, key)
	if c.name != rec.Conn {
		return nil, fmt.Errorf("reconstructed connection %q does not match recorded name %q", c.name, rec.Conn)
	}
	if !rec.Pull {
		// Push-model upcalls go to user code the journal stands in for;
		// a non-nil Data keeps the executor from buffering deliveries.
		c.handler = Handler{Data: func(*Conn, []byte) {}}
	}
	// The journal drives each perform explicitly; a permanently-set
	// executing flag turns any stray drain attempt into a no-op.
	c.executing = true
	t.conns[key] = c
	switch rec.Origin {
	case "active":
		c.stateActiveOpen()
	case "passive":
		c.setState(StateListen)
		if rec.Hop {
			l := t.listeners[key.lport]
			if l == nil {
				l = &Listener{t: t, port: key.lport}
				t.listeners[key.lport] = l
			}
			l.join(c)
		}
	default:
		return nil, fmt.Errorf("open record with unknown origin %q", rec.Origin)
	}
	return c, nil
}

// replayUop mirrors one user operation: the exact synchronous mutations
// the live user-facing call made outside the executor.
func (c *Conn) replayUop(rec *flight.Record) error {
	switch rec.Op {
	case "write":
		// Write's per-chunk body: queue, charge, ask the Send module.
		n := rec.N
		if n < 0 {
			return fmt.Errorf("negative write length %d in journal", n)
		}
		c.tcb.queuePush(make([]byte, n))
		c.t.memCharge(n)
		c.enqueue(action{kind: actMaybeSend})
	case "read":
		rem := rec.N
		for rem > 0 {
			front, ok := c.recv.buf.Front()
			if !ok {
				return fmt.Errorf("read of %d bytes but only %d were buffered", rec.N, rec.N-rem)
			}
			if len(front) <= rem {
				c.recv.buf.PopFront()
				rem -= len(front)
			} else {
				c.recv.buf.PopFront()
				c.recv.buf.PushFront(front[rem:])
				rem = 0
			}
		}
		c.finishRead(rec.N)
	case "close":
		c.stateClose()
	case "abort":
		c.stateAbort(ErrAborted)
	case "wurg":
		c.tcb.sndUpSeq = c.tcb.sndNxt + seq(sat32(c.tcb.queuedBytes)) + seq(sat32(rec.N))
		c.tcb.urgentPending = true
	default:
		return fmt.Errorf("unknown user operation %q", rec.Op)
	}
	return nil
}
