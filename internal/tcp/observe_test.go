package tcp_test

// The observer seam's central promise, checked as one matrix: whatever
// is attached — nothing, the event ring, a tracer, the flight journal,
// the sealed journal, the telemetry plane, or all of them at once —
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
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// sinks is what one row of the matrix attaches. A host's sinks are its
// own (the journal's cause stack is per-host state) except the plane,
// which both hosts share so its series count is the connection count.
type sinks struct {
	rings    [2]*stats.EventRing
	traced   *byteCounter
	journals [2]*bytes.Buffer
	sealed   [2]*bytes.Buffer
	plane    *telemetry.Telemetry
	recs     [2]*flight.Recorder // built by config from journals or sealed
}

type byteCounter struct{ n int }

func (w *byteCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (k *sinks) config(host int) tcp.Config {
	cfg := tcp.Config{Events: k.rings[host], Telemetry: k.plane}
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
	ring := func() *stats.EventRing { return stats.NewEventRing(4096) }
	plane := func() *telemetry.Telemetry { return telemetry.New(telemetry.Options{SampleEveryNS: 100_000}) }
	rows := []struct {
		name string
		k    sinks
	}{
		{"none", sinks{}},
		{"ring", sinks{rings: [2]*stats.EventRing{ring(), ring()}}},
		{"trace", sinks{traced: new(byteCounter)}},
		{"flight", sinks{journals: [2]*bytes.Buffer{{}, {}}}},
		{"sealed flight", sinks{sealed: [2]*bytes.Buffer{{}, {}}}},
		{"telemetry", sinks{plane: plane()}},
		{"all", sinks{
			rings: [2]*stats.EventRing{ring(), ring()}, traced: new(byteCounter),
			sealed: [2]*bytes.Buffer{{}, {}}, plane: plane(),
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
// is populated, and the journals it wrote replay without divergence.
func (k *sinks) checkFilled(t *testing.T) {
	t.Helper()
	for i, r := range k.rings {
		if r == nil {
			continue
		}
		kinds := map[stats.EventKind]bool{}
		for _, e := range r.Events() {
			kinds[e.Kind] = true
			if e.Detail == "" {
				t.Errorf("ring %d: %v event has no detail", i, e.Kind)
			}
		}
		if !kinds[stats.EvStateTransition] || (i == 0 && !kinds[stats.EvRetransmit]) {
			t.Errorf("ring %d saw kinds %v, want state transitions (and the sender's retransmits)", i, kinds)
		}
	}
	if k.traced != nil && k.traced.n == 0 {
		t.Error("tracer wrote nothing")
	}
	for i, j := range k.journals {
		if j != nil {
			if res := replaySide(t, []string{"client", "server"}[i], j); res.Actions == 0 {
				t.Errorf("journal %d replayed no actions", i)
			}
		}
	}
	for i, j := range k.sealed {
		if j == nil {
			continue
		}
		if _, err := seal.Verify(bytes.NewReader(j.Bytes())); err != nil {
			t.Errorf("sealed journal %d: %v", i, err)
		}
		if res := replaySide(t, []string{"client", "server"}[i], j); res.Actions == 0 {
			t.Errorf("sealed journal %d replayed no actions", i)
		}
	}
	if tl := k.plane; tl != nil {
		checkPlane(t, tl)
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
	series := tl.Series()
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2 (one per connection; both hosts share the plane)", len(series))
	}
	sawCwnd := false
	for _, sr := range series {
		if sr.Total() == 0 {
			t.Errorf("series %s took no samples", sr.Name())
		}
		pts := sr.Points()
		for i, p := range pts {
			if i > 0 && p.At < pts[i-1].At {
				t.Fatalf("series %s not time-ordered: %d after %d", sr.Name(), p.At, pts[i-1].At)
			}
			sawCwnd = sawCwnd || (p.Cwnd > 0 && p.RTO > 0)
		}
	}
	if !sawCwnd {
		t.Error("no sampled point carries cwnd and RTO")
	}
}

// TestTelemetryDirectDispatch: with the to_do queue bypassed there is no
// door to observe, so New must drop the door's sinks entirely.
func TestTelemetryDirectDispatch(t *testing.T) {
	tl := telemetry.New(telemetry.Options{})
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
	if tl.Action.Count() != 0 || len(tl.Series()) != 0 || journal.Len() != 0 {
		t.Fatalf("DirectDispatch run touched the door's sinks: %d actions, %d series, %d journal bytes",
			tl.Action.Count(), len(tl.Series()), journal.Len())
	}
}
