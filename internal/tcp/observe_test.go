package tcp_test

// The observer seam's central promise, checked as one matrix: whatever
// is attached — nothing, a tracer, the flight journal, the sealed
// journal, the telemetry plane, or all of them at once —
// the same lossy transfer finishes at the same virtual instant having
// sent the same segments, retransmitted the same ones and delivered the
// same bytes, while each attached sink actually fills up.

import (
	"bytes"
	"testing"

	"repro/internal/basis"
	"repro/internal/flight"
	"repro/internal/flight/seal"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// sinks is what one row of the matrix attaches. A host's sinks are its
// own (the journal's cause stack is per-host state) except the plane,
// which both hosts share.
type sinks struct {
	traced   *byteCounter
	journals [2]*bytes.Buffer
	sealed   [2]*bytes.Buffer
	plane    *telemetry.Telemetry
	recs     [2]*flight.Recorder // built by config from journals or sealed
}

type byteCounter struct{ n int }

func (w *byteCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (k *sinks) config(host int) tcp.Config {
	cfg := tcp.Config{Telemetry: k.plane}
	if k.traced != nil {
		cfg.Trace = basis.NewTracer("tcp", k.traced, true)
	}
	switch {
	case k.sealed[host] != nil:
		cfg.Flight = flight.NewRecorder(seal.NewWriter(k.sealed[host]))
	case k.journals[host] != nil:
		cfg.Flight = flight.NewRecorder(k.journals[host])
	}
	k.recs[host] = cfg.Flight
	return cfg
}

// outcome is everything the simulation can see of one run.
type outcome struct {
	doneAt             sim.Time
	segs, rexmits, got uint64
}

// observedTransfer runs one deterministic transfer (slightly lossy
// wire, so retransmission and RTT paths execute; pull-model receiver, so
// Read is exercised) with the given sinks attached.
func observedTransfer(t *testing.T, k *sinks) (out outcome) {
	t.Helper()
	const n = 150_000
	s := sim.New(sim.Config{})
	s.Run(func() {
		seg := wire.NewSegment(s, wire.Config{Loss: 0.03, Seed: 9}, nil)
		a, b := buildRecordedPair(s, seg, k.config(0), k.config(1))
		var server *tcp.Conn
		b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler {
			server = c
			return tcp.Handler{} // no Data handler: the Read path
		})
		conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		finished := false
		cond := sim.NewCond(s)
		s.Fork("reader", func() {
			buf := make([]byte, n)
			if _, err := server.ReadFull(buf); err != nil {
				t.Errorf("ReadFull: %v", err)
			}
			finished = true
			cond.Signal()
		})
		conn.Write(make([]byte, n))
		for !finished {
			cond.Wait()
		}
		st := a.TCP.Stats()
		out = outcome{doneAt: s.Now(), segs: st.SegsSent, rexmits: st.Retransmits, got: b.TCP.Stats().BytesReceived}
	})
	for _, r := range k.recs {
		if err := r.Sync(); err != nil {
			t.Errorf("journal sync: %v", err)
		}
	}
	return out
}

func TestTelemetryBitIdentical(t *testing.T) {
	rows := []struct {
		name string
		k    sinks
	}{
		{"none", sinks{}},
		{"trace", sinks{traced: new(byteCounter)}},
		{"flight", sinks{journals: [2]*bytes.Buffer{{}, {}}}},
		{"sealed flight", sinks{sealed: [2]*bytes.Buffer{{}, {}}}},
		{"telemetry", sinks{plane: telemetry.New()}},
		{"all", sinks{
			traced: new(byteCounter), sealed: [2]*bytes.Buffer{{}, {}}, plane: telemetry.New(),
		}},
	}
	var base outcome
	for i := range rows {
		row := &rows[i]
		t.Run(row.name, func(t *testing.T) {
			got := observedTransfer(t, &row.k)
			if i == 0 {
				base = got
				if base.rexmits == 0 || base.got != 150_000 {
					t.Fatalf("scenario should retransmit and deliver everything: %+v", base)
				}
				return
			}
			if got != base {
				t.Fatalf("observed run diverged: unobserved %+v, observed %+v", base, got)
			}
			row.k.checkFilled(t)
		})
	}
}

// checkFilled asserts the run really was observed: every attached sink
// is populated, and the journals it wrote replay without divergence and
// hold the run's point events and connection series.
func (k *sinks) checkFilled(t *testing.T) {
	t.Helper()
	if k.traced != nil && k.traced.n == 0 {
		t.Error("tracer wrote nothing")
	}
	for i, j := range k.journals {
		if j != nil {
			checkJournal(t, i, j)
		}
	}
	for i, j := range k.sealed {
		if j == nil {
			continue
		}
		if _, err := seal.Verify(bytes.NewReader(j.Bytes())); err != nil {
			t.Errorf("sealed journal %d: %v", i, err)
		}
		checkJournal(t, i, j)
	}
	if tl := k.plane; tl != nil {
		checkPlane(t, tl)
	}
}

// checkJournal replays one host's journal (host 0 sends) and reads its
// views: state transitions on both sides, retransmits on the sender,
// and a time-ordered series carrying cwnd and RTO.
func checkJournal(t *testing.T, host int, j *bytes.Buffer) {
	t.Helper()
	side := []string{"client", "server"}[host]
	if res := replaySide(t, side, j); res.Actions == 0 {
		t.Errorf("%s journal replayed no actions", side)
	}
	recs, err := flight.ReadAll(bytes.NewReader(j.Bytes()))
	if err != nil {
		t.Fatalf("%s journal: %v", side, err)
	}
	kinds := map[string]bool{}
	conn := ""
	for _, e := range flight.Events(recs) {
		kinds[e.EvKind] = true
		if tcp.DescribeEvent(e.EvKind, e.EvA, e.EvB) == "" {
			t.Errorf("%s: %s event renders no detail", side, e.EvKind)
		}
		if conn == "" {
			conn = e.Conn
		}
	}
	if !kinds[tcp.EventState] || (host == 0 && !kinds[tcp.EventRexmit]) {
		t.Errorf("%s journal holds event kinds %v, want state transitions (and the sender's retransmits)", side, kinds)
	}
	pts := flight.Series(recs, conn)
	sawCwnd := false
	for i, p := range pts {
		if i > 0 && p.At < pts[i-1].At {
			t.Fatalf("%s series of %s not time-ordered: %d after %d", side, conn, p.At, pts[i-1].At)
		}
		sawCwnd = sawCwnd || (p.Cwnd > 0 && p.RTO > 0)
	}
	if !sawCwnd {
		t.Errorf("%s series of %s: no point carries cwnd and RTO (%d points)", side, conn, len(pts))
	}
}

func checkPlane(t *testing.T, tl *telemetry.Telemetry) {
	t.Helper()
	for name, h := range map[string]*telemetry.Hist{
		"action-latency": &tl.Action, "RTT": &tl.RTT, "read-latency": &tl.Read, "write-latency": &tl.Write,
	} {
		if h.Count() == 0 {
			t.Errorf("%s histogram is empty", name)
		}
	}
	var actions uint64
	for k := telemetry.ActKind(0); k < telemetry.NumActKinds; k++ {
		actions += tl.Prof.Count(k)
	}
	if actions != tl.Action.Count() {
		t.Errorf("profiler recorded %d actions, histogram %d — every drained action hits both",
			actions, tl.Action.Count())
	}
}

// TestTelemetryDirectDispatch: with the to_do queue bypassed there is no
// door to observe, so New must drop the door's sinks entirely.
func TestTelemetryDirectDispatch(t *testing.T) {
	tl := telemetry.New()
	var journal bytes.Buffer
	runPair(t, wire.Config{}, tcp.Config{DirectDispatch: true, Telemetry: tl, Flight: flight.NewRecorder(&journal)},
		func(s *sim.Scheduler, a, b tcpHost) {
			var rc collector
			b.TCP.Listen(80, func(c *tcp.Conn) tcp.Handler { return rc.handler() })
			conn, err := a.TCP.Open(b.A, 80, tcp.Handler{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			conn.Write(make([]byte, 5000))
			s.Sleep(2_000_000_000)
			if rc.buf.Len() != 5000 {
				t.Fatalf("received %d bytes, want 5000", rc.buf.Len())
			}
		})
	if tl.Action.Count() != 0 || journal.Len() != 0 {
		t.Fatalf("DirectDispatch run touched the door's sinks: %d actions, %d journal bytes",
			tl.Action.Count(), journal.Len())
	}
}
