// Package telemetry is the stack's wall-clock and latency plane: what
// the flight journal cannot hold. Four allocation-free latency
// histograms for the hot paths (segment RTT samples, the
// enqueue→perform gap at the executor's single door, user Read/Write
// completion) and a per-action executor profile attributing virtual and
// wall time to the paper's four modules — the Table 2 breakdown made
// continuous. A connection's congestion and window series is not kept
// here: it is a view over the journal's TCB deltas (flight.Series).
//
// Everything here is a pure observer with the same discipline the flight
// recorder meets: hooks read protocol state and mutate only atomics,
// never charge virtual time, never enqueue actions, never arm timers —
// so a telemetered run is bit-identical to the same run unobserved (the
// quasisync analyzer checks the structural half; the experiments
// package's overhead run checks the dynamic half). Every exported value
// is atomic, which is what lets foxstat -serve scrape a simulation
// while it runs: the exporter's goroutine reads histograms and profiles
// concurrently with the executor writing them.
package telemetry

// Telemetry is one endpoint's telemetry plane. All fields are safe for
// concurrent scraping while the simulation runs.
type Telemetry struct {
	// Action is the enqueue→perform latency at the executor's single
	// door, in virtual nanoseconds: how long a tcp_action waited on
	// to_do before the drain performed it.
	Action Hist
	// RTT holds raw segment round-trip samples (the measurements Karn's
	// rule admits into the Jacobson estimator), in virtual nanoseconds.
	RTT Hist
	// Read and Write are user-visible completion latencies in virtual
	// nanoseconds: the full span of one blocking Read or Write call,
	// queueing and flow-control stalls included.
	Read  Hist
	Write Hist

	// Prof attributes executor work per action kind and per module.
	Prof Prof
}

// New returns an empty telemetry plane; its zero value is ready, and
// nothing in it allocates after this.
func New() *Telemetry { return new(Telemetry) }
