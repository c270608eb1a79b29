package main

import (
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // end-to-end only: the share by which the metric may worsen
	// exact marks a metric that must repeat bit for bit for one workload
	// and seed: the virtual-clock metrics and every count. The others
	// carry wall time or the Go runtime's own allocations.
	exact bool
}

// endToEnd are the metrics a user of the stack would see, measured on
// the untraced run. Wall metrics use the quiet-slice estimator; virt_*
// are the paper's Table 1 rows on the deterministic virtual clock. Each
// bound is at least three times the widest quartile spread seen over ten
// seeds on the sizing box (README.md has the table): the wall bounds
// cover that machine's minute-long slow phases, the virt_* bounds cover
// how much loss_w64k's outcome depends on which frames the seed drops.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "wall_us_per_txn", unit: "us", bound: 0.20},
	{name: "wall_goodput_MBps", unit: "MB/s", higher: true, bound: 0.20},
	{name: "virt_goodput_mbps", unit: "Mb/s", higher: true, exact: true, bound: 0.05},
	{name: "virt_txn_ms_p50", unit: "ms", exact: true, bound: 0.06},
	{name: "virt_txn_ms_p99", unit: "ms", exact: true, bound: 0.15},
	{name: "allocs_per_txn", unit: "count", bound: 0.02},
	{name: "alloc_KB_per_txn", unit: "KB", bound: 0.02},
	{name: "heap_live_MB", unit: "MB", bound: 0.10},
}

// perLayer are the single-layer metrics. Counts are deltas of exported
// counters over the timed phase of the untraced run and repeat exactly;
// *_ns* times come from the traced run's spans or from the rigs.
var perLayer = []metricDef{
	{name: "foxnet.assemble_us", unit: "us"},
	{name: "foxnet.connect_us", unit: "us"},

	{name: "tcp.segs_per_txn", unit: "count", exact: true},
	{name: "tcp.fastpath_ratio", unit: "ratio", higher: true, exact: true},
	{name: "tcp.retx_ratio", unit: "ratio", exact: true},
	{name: "tcp.dupacks_per_txn", unit: "count", exact: true},
	{name: "tcp.ooo_per_txn", unit: "count", exact: true},
	{name: "tcp.acks_delayed_per_txn", unit: "count", exact: true},
	{name: "tcp.conns_per_txn", unit: "count", exact: true},
	{name: "tcp.active_conns_end", unit: "count", exact: true},
	{name: "tcp.failed_conns", unit: "count", exact: true},
	{name: "tcp.write_self_ns_per_seg", unit: "ns"},
	{name: "tcp.rx_self_ns_per_seg", unit: "ns"},
	{name: "tcp.timer_sends_per_txn", unit: "count"},
	{name: "tcp.open_us_p50", unit: "us"},
	{name: "tcp.close_us_p50", unit: "us"},
	{name: "tcp.rung_ns_per_seg", unit: "ns"},

	{name: "ip.lower_tx_ns_per_seg", unit: "ns"},
	{name: "ip.rung_ns_per_pkt", unit: "ns"},
	{name: "ip.pkts_per_seg", unit: "count", exact: true},
	{name: "ip.discards", unit: "count", exact: true},

	{name: "ethernet.rung_ns_per_frame", unit: "ns"},
	{name: "ethernet.frames_per_seg", unit: "count", exact: true},

	{name: "wire.rung_ns_per_frame", unit: "ns"},
	{name: "wire.frames_per_txn", unit: "count", exact: true},
	{name: "wire.lost_ratio", unit: "ratio", exact: true},
	{name: "wire.util_pct", unit: "%", higher: true, exact: true},

	{name: "sim.switches_per_seg", unit: "count", exact: true},
	{name: "sim.forks_per_seg", unit: "count", exact: true},
	{name: "sim.timer_fires_per_txn", unit: "count", exact: true},
	{name: "sim.ready_highwater", unit: "count", exact: true},
	{name: "sim.switch_ns", unit: "ns"},
	{name: "sim.fork_exit_ns", unit: "ns"},
	{name: "sim.share_pct", unit: "%"},

	{name: "timers.start_clear_ns", unit: "ns"},
	{name: "timers.start_expire_ns", unit: "ns"},
	{name: "timers.share_pct", unit: "%"},

	{name: "checksum.ns_per_KB", unit: "ns/KB"},
	{name: "checksum.share_pct", unit: "%"},

	{name: "basis.alloc_packet_ns", unit: "ns"},
	{name: "basis.copy_ns_per_KB", unit: "ns/KB"},

	{name: "go.allocs_per_seg", unit: "count"},
	{name: "go.alloc_B_per_seg", unit: "B"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_ms", unit: "ms"},

	{name: "baseline.wall_us_per_txn", unit: "us"},
	{name: "baseline.virt_goodput_mbps", unit: "Mb/s", higher: true},
	{name: "baseline.fox_over_xk_wall", unit: "ratio"},

	{name: "app.slices", unit: "count", higher: true, exact: true},
	{name: "app.slice_ms_p50", unit: "ms"},
	{name: "app.slice_ms_p99", unit: "ms"},
	{name: "app.noise_ratio", unit: "ratio"},
	{name: "app.upcall_self_ns_per_txn", unit: "ns"},
	{name: "app.txn_failed_ratio", unit: "ratio", exact: true},

	{name: "ladder.unattributed_pct", unit: "%"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.spans", unit: "count", higher: true},
}

// allMetrics is every metric in printing order.
func allMetrics() []metricDef {
	return append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durationsToFloat(ds []time.Duration, per float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / per
	}
	sort.Float64s(out)
	return out
}

// untracedMetrics computes every metric the untraced run supports: all
// of endToEnd and the count-based part of perLayer. setups are the wall
// times of every set-up of this workload in this process.
func untracedMetrics(sp spec, d runData, setups []time.Duration) map[string]float64 {
	m := map[string]float64{}
	c := d.counts
	txns := float64(d.timed)
	segs := float64(c[cSegsOut])
	quiet := float64(quietSlice(d.slices)) // ns per slice
	perSlice := float64(sp.slice)

	m["setup_s"] = median(durationsToFloat(setups, 1e9))
	m["wall_us_per_txn"] = quiet / perSlice / 1e3
	m["wall_goodput_MBps"] = ratio(float64(sp.reply)*perSlice*1e3, quiet)
	m["virt_goodput_mbps"] = ratio(float64(d.okBytes)*8, d.virt.Seconds()) / 1e6
	lat := durationsToFloat(d.lat, 1e6)
	m["virt_txn_ms_p50"] = percentile(lat, 50)
	m["virt_txn_ms_p99"] = percentile(lat, 99)
	m["allocs_per_txn"] = float64(d.mallocs) / txns
	m["alloc_KB_per_txn"] = float64(d.allocBytes) / 1024 / txns
	m["heap_live_MB"] = float64(d.heapLive) / (1 << 20)

	m["foxnet.assemble_us"] = d.assembleUs
	m["foxnet.connect_us"] = d.connectUs

	m["tcp.segs_per_txn"] = segs / txns
	m["tcp.fastpath_ratio"] = ratio(float64(c[cFastIn]), float64(c[cFastIn]+c[cSlowIn]))
	m["tcp.retx_ratio"] = ratio(float64(c[cRetx]), segs)
	m["tcp.dupacks_per_txn"] = float64(c[cDupAcks]) / txns
	m["tcp.ooo_per_txn"] = float64(c[cOOO]) / txns
	m["tcp.acks_delayed_per_txn"] = float64(c[cAcksDelayed]) / txns
	m["tcp.conns_per_txn"] = float64(c[cConns]) / txns
	m["tcp.active_conns_end"] = float64(d.activeConns)
	m["tcp.failed_conns"] = float64(d.connErrs)

	m["ip.pkts_per_seg"] = ratio(float64(c[cIPPkts]), segs)
	m["ip.discards"] = float64(c[cIPDiscards])
	m["ethernet.frames_per_seg"] = ratio(float64(c[cEthFrames]), segs)
	m["wire.frames_per_txn"] = float64(c[cWireSent]) / txns
	m["wire.lost_ratio"] = ratio(float64(c[cWireLost]), float64(c[cWireSent]))
	m["wire.util_pct"] = ratio(float64(c[cEthOctets])*8, d.virt.Seconds()*wireBitsPerSecond) * 100

	m["sim.switches_per_seg"] = ratio(float64(c[cSwitches]), segs)
	m["sim.forks_per_seg"] = ratio(float64(c[cForks]), segs)
	m["sim.timer_fires_per_txn"] = float64(c[cTimerFires]) / txns
	m["sim.ready_highwater"] = float64(d.readyHW)

	m["go.allocs_per_seg"] = ratio(float64(d.mallocs), segs)
	m["go.alloc_B_per_seg"] = ratio(float64(d.allocBytes), segs)
	m["go.gc_cycles"] = float64(d.gcCycles)
	m["go.gc_pause_ms"] = float64(d.gcPauseNs) / 1e6

	ms := durationsToFloat(d.slices, 1e6)
	m["app.slices"] = float64(len(d.slices))
	m["app.slice_ms_p50"] = percentile(ms, 50)
	m["app.slice_ms_p99"] = percentile(ms, 99)
	m["app.noise_ratio"] = ratio(percentile(ms, 50), percentile(ms, 10))
	m["app.txn_failed_ratio"] = ratio(float64(d.failed), float64(d.attempted))
	return m
}

// wireBitsPerSecond is the default medium the workloads run on.
const wireBitsPerSecond = 10e6

// frameBytes is the mean size of the frames the untraced run put on the
// wire, the size the rigs are driven at.
func frameBytes(d runData) int {
	return int(ratio(float64(d.counts[cEthOctets]), float64(d.counts[cEthFrames])) + 0.5)
}

// tracedMetrics adds to m the metrics that need the traced run t, the
// rigs r and the baseline control x. d is the untraced run m was
// computed from.
func tracedMetrics(m map[string]float64, sp spec, d, t runData, r rigs, x xkData) {
	segsPerTxn := m["tcp.segs_per_txn"]
	wallNsPerSeg := ratio(m["wall_us_per_txn"]*1e3, segsPerTxn)
	tsegs := float64(t.counts[cSegsOut])
	ttxns := float64(t.timed)

	// Span sums over the traced run's timed phase, by kind.
	var self, dur [nSpanKinds]float64
	var open, closeUs []float64
	timerSends := 0
	for i, s := range selfTimes(t.spans) {
		sp := t.spans[i]
		switch sp.kind {
		case spOpen:
			open = append(open, float64(sp.end-sp.start)/1e3)
		case spClose:
			closeUs = append(closeUs, float64(sp.end-sp.start)/1e3)
		}
		if sp.start < t.timedFrom || sp.start > t.timedTo {
			continue
		}
		self[sp.kind] += float64(s)
		dur[sp.kind] += float64(sp.end - sp.start)
		if sp.kind == spLowerTx && sp.parent < 0 {
			timerSends++
		}
	}
	m["tcp.write_self_ns_per_seg"] = ratio(self[spWrite], tsegs)
	m["tcp.rx_self_ns_per_seg"] = ratio(self[spRx], tsegs)
	m["tcp.timer_sends_per_txn"] = float64(timerSends) / ttxns
	m["tcp.open_us_p50"] = median(open)
	m["tcp.close_us_p50"] = median(closeUs)
	m["ip.lower_tx_ns_per_seg"] = ratio(dur[spLowerTx], tsegs)
	m["app.upcall_self_ns_per_txn"] = self[spUpcall] / ttxns
	m["trace.spans"] = float64(len(t.spans))
	tracedUs := float64(quietSlice(t.slices)) / float64(sp.slice) / 1e3
	m["trace.overhead_pct"] = (ratio(tracedUs, m["wall_us_per_txn"]) - 1) * 100

	// The ladder: each rig is a one-way frame traversal through the
	// layers up to its own, so a rung is a rig minus the rig below and
	// TCP's rung is what the end-to-end segment costs beyond the IP rig.
	lower := r.ipNs * m["ethernet.frames_per_seg"]
	m["wire.rung_ns_per_frame"] = r.wireNs
	m["ethernet.rung_ns_per_frame"] = r.ethNs - r.wireNs
	m["ip.rung_ns_per_pkt"] = r.ipNs - r.ethNs
	m["tcp.rung_ns_per_seg"] = wallNsPerSeg - lower
	// Explained: the lower rungs plus the self time of every span above
	// the shim. ip.lower_tx is left out — the IP rig already holds it.
	spanSelf := self[spTxn] + self[spOpen] + self[spClose] + self[spWrite] + self[spRx] + self[spUpcall]
	m["ladder.unattributed_pct"] = ratio(wallNsPerSeg-lower-ratio(spanSelf, tsegs), wallNsPerSeg) * 100

	m["sim.switch_ns"] = r.switchNs
	m["sim.fork_exit_ns"] = r.forkExitNs
	m["sim.share_pct"] = ratio(m["sim.switches_per_seg"]*r.switchNs+m["sim.forks_per_seg"]*r.forkExitNs, wallNsPerSeg) * 100
	m["timers.start_clear_ns"] = r.timerClearNs
	m["timers.start_expire_ns"] = r.timerExpireNs
	// Every fork in the timed phase is a timer arm (the benchmark forks
	// nothing per request); the ones that fire cost the difference more.
	firesPerSeg := ratio(m["sim.timer_fires_per_txn"], segsPerTxn)
	m["timers.share_pct"] = ratio(m["sim.forks_per_seg"]*r.timerClearNs+firesPerSeg*(r.timerExpireNs-r.timerClearNs), wallNsPerSeg) * 100
	m["checksum.ns_per_KB"] = r.checksumNsPerKB
	// A segment is summed once by its sender and once by its receiver.
	segKB := float64(frameBytes(d)-18-20) / 1024
	m["checksum.share_pct"] = ratio(2*segKB*r.checksumNsPerKB, wallNsPerSeg) * 100
	m["basis.alloc_packet_ns"] = r.allocPacketNs
	m["basis.copy_ns_per_KB"] = r.copyNsPerKB

	xkQuiet := float64(quietSlice(x.xk))
	m["baseline.wall_us_per_txn"] = xkQuiet / float64(sp.slice) / 1e3
	m["baseline.virt_goodput_mbps"] = ratio(float64(x.xkOKBytes)*8, x.xkVirt.Seconds()) / 1e6
	m["baseline.fox_over_xk_wall"] = ratio(float64(quietSlice(x.fox)), xkQuiet)
}
