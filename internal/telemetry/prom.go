package telemetry

import (
	"fmt"
	"io"
)

// Prometheus text exposition (version 0.0.4) for one telemetry plane.
// Histograms render as summaries (quantile series plus _count/_sum/_max)
// rather than 976-bucket histograms. Per-connection gauges come from the
// flight journal, not from here (cmd/foxstat renders them).

type promHist struct {
	name, help string
	h          *Hist
}

// WriteMetrics renders the plane in Prometheus text format, labeling
// every series with host="hostLabel". Safe while the simulation runs.
// Label values render with %q: Go string quoting escapes the same
// characters the exposition format requires (backslash, quote,
// newline).
func (t *Telemetry) WriteMetrics(w io.Writer, hostLabel string) {
	host := hostLabel
	hists := []promHist{
		{"fox_action_latency_ns", "enqueue-to-perform latency at the executor's single door (virtual ns)", &t.Action},
		{"fox_rtt_sample_ns", "segment round-trip samples admitted to the RTT estimator (virtual ns)", &t.RTT},
		{"fox_read_latency_ns", "user Read completion latency (virtual ns)", &t.Read},
		{"fox_write_latency_ns", "user Write completion latency (virtual ns)", &t.Write},
	}
	for _, ph := range hists {
		s := ph.h.Snapshot()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", ph.name, ph.help, ph.name)
		fmt.Fprintf(w, "%s{host=%q,quantile=\"0.5\"} %d\n", ph.name, host, s.P50)
		fmt.Fprintf(w, "%s{host=%q,quantile=\"0.9\"} %d\n", ph.name, host, s.P90)
		fmt.Fprintf(w, "%s{host=%q,quantile=\"0.99\"} %d\n", ph.name, host, s.P99)
		fmt.Fprintf(w, "%s_count{host=%q} %d\n", ph.name, host, s.Count)
		fmt.Fprintf(w, "%s_sum{host=%q} %d\n", ph.name, host, s.Sum)
		fmt.Fprintf(w, "%s_max{host=%q} %d\n", ph.name, host, s.Max)
	}

	rep := t.Prof.Report()
	fmt.Fprintf(w, "# HELP fox_executor_actions_total actions performed by the quasi-synchronous executor\n# TYPE fox_executor_actions_total counter\n")
	for _, row := range rep.Actions {
		fmt.Fprintf(w, "fox_executor_actions_total{host=%q,action=%q} %d\n", host, row.Name, row.Count)
	}
	fmt.Fprintf(w, "# HELP fox_executor_virtual_ns_total virtual time attributed per module\n# TYPE fox_executor_virtual_ns_total counter\n")
	for _, row := range rep.Modules {
		fmt.Fprintf(w, "fox_executor_virtual_ns_total{host=%q,module=%q} %d\n", host, row.Name, row.VirtNS)
	}
	fmt.Fprintf(w, "# HELP fox_executor_wall_ns_total real CPU time attributed per module\n# TYPE fox_executor_wall_ns_total counter\n")
	for _, row := range rep.Modules {
		fmt.Fprintf(w, "fox_executor_wall_ns_total{host=%q,module=%q} %d\n", host, row.Name, row.WallNS)
	}

}
