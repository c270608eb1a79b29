package telemetry

import (
	"strings"
	"testing"
)

// TestTelemetryEmitNoAllocs proves the hot-path emit functions never
// allocate — the property the //foxvet:hotpath markers assert. One
// histogram observation per hot path and one profiler record per run:
// the full per-action telemetry cost.
func TestTelemetryEmitNoAllocs(t *testing.T) {
	tl := New()
	n := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		tl.Action.Observe(uint64(n))
		tl.RTT.Observe(uint64(n) * 1000)
		tl.Prof.Record(ActProcessData, n, n)
	})
	if allocs != 0 {
		t.Fatalf("telemetry emit path allocates %.1f times per op, want 0", allocs)
	}
}

func TestProfReportRollup(t *testing.T) {
	var p Prof
	p.Record(ActProcessData, 100, 10) // receive
	p.Record(ActProcessData, 200, 20) // receive
	p.Record(ActSendSegment, 50, 5)   // send
	p.Record(ActSetTimer, 30, 3)      // resend
	p.Record(ActCompleteOpen, 7, 1)   // state
	rep := p.Report()
	if len(rep.Actions) != 4 {
		t.Fatalf("Actions rows = %d, want 4 (zero-count kinds skipped)", len(rep.Actions))
	}
	byName := map[string]ProfRow{}
	for _, r := range rep.Modules {
		byName[r.Name] = r
	}
	recv := byName["receive"]
	if recv.Count != 2 || recv.VirtNS != 300 || recv.WallNS != 30 {
		t.Errorf("receive module = %+v, want count 2, virt 300, wall 30", recv)
	}
	if byName["state"].Count != 1 || byName["state"].VirtNS != 7 {
		t.Errorf("state module = %+v, want count 1, virt 7", byName["state"])
	}
	if p.Count(ActProcessData) != 2 {
		t.Errorf("Count(ActProcessData) = %d, want 2", p.Count(ActProcessData))
	}
}

func TestModuleOfCoversAllKinds(t *testing.T) {
	seen := map[Module]bool{}
	for k := ActKind(0); k < NumActKinds; k++ {
		m := ModuleOf(k)
		if m < 0 || m >= NumModules {
			t.Fatalf("ModuleOf(%v) = %d out of range", k, m)
		}
		seen[m] = true
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if len(seen) != int(NumModules) {
		t.Errorf("only %d of %d modules have actions mapped", len(seen), NumModules)
	}
}

func TestWriteMetricsRendering(t *testing.T) {
	tl := New()
	tl.Action.Observe(100)
	tl.RTT.Observe(5000)
	tl.Prof.Record(ActProcessData, 100, 10)

	var b strings.Builder
	tl.WriteMetrics(&b, "host1")
	out := b.String()
	for _, want := range []string{
		`fox_action_latency_ns{host="host1",quantile="0.5"}`,
		`fox_rtt_sample_ns_count{host="host1"} 1`,
		`fox_executor_actions_total{host="host1",action="Process_Data"} 1`,
		`fox_executor_virtual_ns_total{host="host1",module="receive"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
