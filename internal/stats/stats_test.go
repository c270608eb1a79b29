package stats

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Load() != 0 {
		t.Fatalf("nil counter Load = %d", c.Load())
	}
}

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Inc() // 3
	g.Dec() // 2
	g.Dec() // 1
	if got := g.Load(); got != 1 {
		t.Fatalf("Load = %d, want 1", got)
	}
	if got := g.High(); got != 3 {
		t.Fatalf("High = %d, want 3", got)
	}
	g.Set(10)
	if got := g.High(); got != 10 {
		t.Fatalf("High after Set = %d, want 10", got)
	}
	var nilg *Gauge
	nilg.Inc()
	nilg.Set(5)
	if nilg.Load() != 0 || nilg.High() != 0 {
		t.Fatal("nil gauge not inert")
	}
}

// TestHistogramBuckets: a MIB group's histogram is the telemetry plane's
// log-bucket Hist, and the registry renders it as Count, Sum and Mean.
func TestHistogramBuckets(t *testing.T) {
	var m TCPMIB
	for _, v := range []uint64{0, 1, 2, 3, 100} {
		m.RttUsec.Observe(v)
	}
	r := NewRegistry("h")
	r.Register("tcp", &m)
	snap := r.Snapshot()
	for name, want := range map[string]float64{
		"tcp.RttUsecCount": 5, "tcp.RttUsecSum": 106, "tcp.RttUsecMean": 106.0 / 5,
	} {
		if got, ok := snap.Get(name); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if got := m.RttUsec.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %d, want the exact max 100", got)
	}
	r2 := NewRegistry("empty")
	r2.Register("tcp", new(TCPMIB))
	if mean, _ := r2.Snapshot().Get("tcp.RttUsecMean"); mean != 0 {
		t.Errorf("empty histogram mean = %v, want 0", mean)
	}
}

// TestAtomicUnderRace hammers the atomic metric types from many
// goroutines at once while snapshots are taken concurrently. Run under
// `go test -race` (the Makefile `check` target does) this proves the
// atomic half of the atomic/plain split: these types are safe to touch
// off the scheduler.
func TestAtomicUnderRace(t *testing.T) {
	var mib TCPMIB
	r := NewRegistry("race")
	r.Register("tcp", &mib)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				mib.InSegs.Inc()
				mib.OutSegs.Add(2)
				mib.CurrEstab.Inc()
				mib.CurrEstab.Dec()
				mib.RttUsec.Observe(uint64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	snap := r.Snapshot()
	if v, _ := snap.Get("tcp.InSegs"); v != workers*iters {
		t.Fatalf("tcp.InSegs = %v, want %d", v, workers*iters)
	}
	if v, _ := snap.Get("tcp.OutSegs"); v != 2*workers*iters {
		t.Fatalf("tcp.OutSegs = %v, want %d", v, 2*workers*iters)
	}
	if v, _ := snap.Get("tcp.CurrEstab"); v != 0 {
		t.Fatalf("tcp.CurrEstab = %v, want 0", v)
	}
	if hw, _ := snap.Get("tcp.CurrEstabHigh"); hw < 1 {
		t.Fatalf("tcp.CurrEstabHigh = %v, want >= 1", hw)
	}
	if v, _ := snap.Get("tcp.RttUsecCount"); v != workers*iters {
		t.Fatalf("tcp.RttUsecCount = %v, want %d", v, workers*iters)
	}
}

func TestRegistrySnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry("alpha")
	var tcp TCPMIB
	var ip IPMIB
	tcp.InSegs.Add(10)
	tcp.OutSegs.Add(11)
	tcp.CurrEstab.Inc()
	ip.InReceives.Add(20)
	r.Register("tcp", &tcp)
	r.Register("ip", &ip)
	r.RegisterFunc("sched", func() []Sample {
		return []Sample{{Name: "Forks", Value: 5}, {Name: "Switches", Value: 9}}
	})

	snap := r.Snapshot()
	if v, ok := snap.Get("tcp.InSegs"); !ok || v != 10 {
		t.Fatalf("tcp.InSegs = %v, %v", v, ok)
	}
	if v, ok := snap.Get("sched.Forks"); !ok || v != 5 {
		t.Fatalf("sched.Forks = %v, %v", v, ok)
	}

	text := snap.Text()
	for _, want := range []string{"# host alpha", "tcp.InSegs", "ip.InReceives", "sched.Switches"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Text() missing %q:\n%s", want, text)
		}
	}

	raw, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Host   string                        `json:"host"`
		Groups map[string]map[string]float64 `json:"groups"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if parsed.Host != "alpha" {
		t.Fatalf("host = %q", parsed.Host)
	}
	if parsed.Groups["tcp"]["OutSegs"] != 11 {
		t.Fatalf("groups.tcp.OutSegs = %v", parsed.Groups["tcp"]["OutSegs"])
	}
	if parsed.Groups["ip"]["InReceives"] != 20 {
		t.Fatalf("groups.ip.InReceives = %v", parsed.Groups["ip"]["InReceives"])
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Register("tcp", &TCPMIB{})
	r.RegisterFunc("x", func() []Sample { return nil })
	if r.Host() != "" {
		t.Fatal("nil registry host")
	}
	snap := r.Snapshot()
	if len(snap.Groups) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSnapshotGetAndNames(t *testing.T) {
	r := NewRegistry("h")
	var u UDPMIB
	u.InDatagrams.Add(3)
	r.Register("udp", &u)
	snap := r.Snapshot()
	names := snap.Names()
	if len(names) != 4 {
		t.Fatalf("Names = %v, want the 4 UDPMIB fields", names)
	}
	if _, ok := snap.Get("udp.Bogus"); ok {
		t.Fatal("Get found a nonexistent sample")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
