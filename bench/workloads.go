package main

// spec describes one workload. Every workload runs two hosts on the
// default 10 Mb/s wire; the fields are the properties that differ.
type spec struct {
	name    string
	why     string // one line, repeated in BENCHMARK.json
	clients int
	perConn bool // open and close a connection for every transaction
	reply   int  // reply size in bytes
	window  int  // TCP receive window
	loss    float64
	// rate is the number of timed transactions per second of -seconds.
	// It is a fixed sizing constant, not a measurement: a run does
	// rate × seconds transactions whatever the machine, so the virtual
	// timeline and every count repeat exactly, and on the sizing box the
	// timed phase takes about -seconds of wall time.
	rate int
	// slice is the number of transactions per wall-time slice (see
	// quietSlice): about 5 ms of work each.
	slice int
}

var specs = []spec{
	{
		name: "bulk_w4k", clients: 1, reply: 1_000_000, window: 4096, rate: 110, slice: 1,
		why: "Paper Table 1 throughput row: 10^6 B replies, 4096 B window; window-bound and ack-clocked, so tcp fast path, timers and sim switches carry the cost",
	},
	{
		name: "bulk_w64k", clients: 1, reply: 1_000_000, window: 65535, rate: 150, slice: 1,
		why: "Same bytes, 64 KB window: 44-segment bursts fill the medium queue and goodput turns wire-bound; frame batching and copy/checksum work show here, window fixes must not",
	},
	{
		name: "rr_1b", clients: 1, reply: 1, window: 4096, rate: 40000, slice: 250,
		why: "Paper Table 1 round-trip row, smallest packet: per-packet cost is everything, no segment takes the fast path, ~6 timer forks per round trip; copy/checksum do nothing",
	},
	{
		name: "loss_w64k", clients: 1, reply: 1_000_000, window: 65535, loss: 0.02, rate: 110, slice: 1,
		why: "bulk_w64k plus 2% frame loss: leaves the fast path, exercises reassembly, fast retransmit and RTO expiry; recovery quality shows in virtual goodput and p99 here only",
	},
	{
		name: "churn_2c", clients: 2, perConn: true, reply: 8192, window: 4096, rate: 5000, slice: 32,
		why: "Two clients, one connection per 8 KB transaction: Open/Close, listener, demux map, TIME-WAIT and per-connection allocation dominate; a data-path gain that taxes set-up shows here",
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// warmShare is the warm-up's size as a share of the timed phase.
const warmShare = 0.05

// size turns a nominal run length into whole transaction counts: the
// timed phase is a whole number of slices (at least ten, so the quiet
// slice has a sample to choose from) and the warm-up is warmShare of it.
func (sp spec) size(seconds float64) (warm, timed int) {
	slices := int(float64(sp.rate)*seconds/float64(sp.slice) + 0.5)
	if slices < 10 {
		slices = 10
	}
	timed = slices * sp.slice
	warm = int(float64(timed)*warmShare + 0.999)
	return warm, timed
}
