package experiments

// The observer attestation. Every sink the stack can attach — the
// flight journal, the hash chain sealing it, the telemetry plane —
// watches the executor's hottest paths through the one seam in
// internal/tcp, so what it costs is measured and that it changes
// nothing is checked, both by one harness: the same deterministic bulk
// transfer runs unobserved and once per requested arrangement of sinks;
// CPU charging is off, so the virtual result is wire-limited and must be
// bit-identical in every arm (observers are pure), and the
// best-of-trials real time isolates what the sinks cost the host CPU.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/flight/seal"
	"repro/internal/telemetry"
)

// Sinks selects what an attestation arm attaches to both hosts.
type Sinks uint8

const (
	// SinkFlight journals both hosts to counting writers.
	SinkFlight Sinks = 1 << iota
	// SinkSeal seals those journals with the hash chain, so the arm
	// measures hashing and seal framing with no filesystem in the loop.
	// Implies SinkFlight.
	SinkSeal
	// SinkTelemetry attaches a fresh telemetry plane to each host.
	SinkTelemetry
)

func (s Sinks) String() string {
	var parts []string
	switch {
	case s&SinkSeal != 0:
		parts = append(parts, "sealed flight")
	case s&SinkFlight != 0:
		parts = append(parts, "flight")
	}
	if s&SinkTelemetry != 0 {
		parts = append(parts, "telemetry")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " + ")
}

// countingWriter discards journal bytes but keeps the totals, so the
// report can say how much journal a run produces. Records are counted by
// newline: the framing ends every record with '\n' and JSON bodies
// escape all control characters.
type countingWriter struct {
	bytes, records int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	for _, b := range p {
		if b == '\n' {
			w.records++
		}
	}
	return len(p), nil
}

// ArmResult is one arrangement of sinks: its virtual result, its best
// real time, and what the sinks collected in the last trial (both hosts
// together). It is also the arm's shape in foxbench -json output.
type ArmResult struct {
	Sinks          Sinks                   `json:"-"`
	Name           string                  `json:"sinks"`
	Wall           time.Duration           `json:"wall_ns"`           // best of Trials
	OverheadPct    float64                 `json:"wall_overhead_pct"` // against the unobserved arm
	JournalRecords int64                   `json:"journal_records_per_run,omitempty"`
	JournalBytes   int64                   `json:"journal_bytes_per_run,omitempty"` // seal records included when sealed
	SealedBatches  int64                   `json:"sealed_batches_per_run,omitempty"`
	Actions        uint64                  `json:"actions_per_run,omitempty"` // executor actions profiled
	Transfer       TransferJSON            `json:"transfer"`
	Planes         [2]*telemetry.Telemetry `json:"-"`
}

// Attestation is the harness's result, and the attestation report of
// foxbench -json: the unobserved arm first, then one arm per requested
// arrangement.
type Attestation struct {
	Trials    int         `json:"trials"`
	Identical bool        `json:"virtual_results_identical"` // every arm's virtual result equals the unobserved one
	Arms      []ArmResult `json:"arms"`
	Text      string      `json:"-"`
}

// Attest runs the bulk transfer unobserved and once per arrangement in
// arms, Trials times each. With nothing attached the seam costs one
// branch at the door, so the first arm also stands in for a stack with
// no observers at all.
func Attest(o Options, arms ...Sinks) Attestation {
	o.fill()
	o.NoCharge = true // wire-limited: virtual results must match in every arm
	const trials = 5
	res := Attestation{Trials: trials, Identical: true}
	for _, s := range append([]Sinks{0}, arms...) {
		if s&SinkSeal != 0 {
			s |= SinkFlight
		}
		res.Arms = append(res.Arms, runArm(o, s, trials))
	}
	off := &res.Arms[0]
	for i := range res.Arms[1:] {
		a := &res.Arms[i+1]
		if off.Wall > 0 {
			a.OverheadPct = 100 * float64(a.Wall-off.Wall) / float64(off.Wall)
		}
		if a.Transfer != off.Transfer {
			res.Identical = false
		}
	}
	res.Text = res.format(o.Bytes)
	return res
}

func runArm(o Options, s Sinks, trials int) ArmResult {
	arm := ArmResult{Sinks: s, Name: s.String()}
	for i := 0; i < trials; i++ {
		opt := o
		var cw [2]countingWriter
		var sw [2]*seal.Writer
		var planes [2]*telemetry.Telemetry
		for j := range cw {
			switch {
			case s&SinkSeal != 0:
				sw[j] = seal.NewWriter(&cw[j])
				opt.FlightSinks = append(opt.FlightSinks, sw[j])
			case s&SinkFlight != 0:
				opt.FlightSinks = append(opt.FlightSinks, &cw[j])
			}
			if s&SinkTelemetry != 0 {
				planes[j] = telemetry.New()
				opt.Telemetry = append(opt.Telemetry, planes[j])
			}
		}
		start := time.Now()
		arm.Transfer = transferJSON(Throughput(Structured, opt))
		for _, w := range sw {
			if w != nil {
				w.Sync() // sealing the final partial batch is part of a run's cost
			}
		}
		if wall := time.Since(start); i == 0 || wall < arm.Wall {
			arm.Wall = wall
		}
		arm.JournalBytes = cw[0].bytes + cw[1].bytes
		arm.JournalRecords = cw[0].records + cw[1].records
		arm.SealedBatches, arm.Actions = 0, 0
		for j := range cw {
			if sw[j] != nil {
				arm.SealedBatches += int64(sw[j].MIB().BatchesSealed.Load())
			}
			if tl := planes[j]; tl != nil {
				for k := telemetry.ActKind(0); k < telemetry.NumActKinds; k++ {
					arm.Actions += tl.Prof.Count(k)
				}
			}
		}
		arm.Planes = planes
	}
	return arm
}

func (a Attestation) format(bytes int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Observer attestation (bulk transfer, %d bytes, wire-limited, best of %d)\n", bytes, a.Trials)
	for i, arm := range a.Arms {
		fmt.Fprintf(&b, "  %-25s wall %10v", arm.Sinks, arm.Wall.Round(time.Microsecond))
		if i == 0 {
			fmt.Fprintf(&b, "   virtual %v, %.2f Mb/s\n", time.Duration(arm.Transfer.ElapsedNS), arm.Transfer.ThroughputMbps)
			continue
		}
		fmt.Fprintf(&b, " (%+.1f%%)", arm.OverheadPct)
		if arm.Sinks&SinkFlight != 0 {
			fmt.Fprintf(&b, "   journal %d records / %d B", arm.JournalRecords, arm.JournalBytes)
		}
		if arm.Sinks&SinkSeal != 0 {
			fmt.Fprintf(&b, " in %d sha256-sealed batches", arm.SealedBatches)
		}
		if arm.Sinks&SinkTelemetry != 0 {
			fmt.Fprintf(&b, "   %d actions profiled", arm.Actions)
		}
		b.WriteString("\n")
	}
	if a.Identical {
		b.WriteString("  virtual results identical off/on in every arm: observers are pure; with none attached the door costs one branch\n")
	} else {
		b.WriteString("  WARNING: virtual results differ:")
		for _, arm := range a.Arms {
			fmt.Fprintf(&b, " %s %v/%d segs/%d rexmits;", arm.Sinks,
				time.Duration(arm.Transfer.ElapsedNS), arm.Transfer.SegsSent, arm.Transfer.Retransmits)
		}
		b.WriteString("\n")
	}
	for _, arm := range a.Arms {
		if tl := arm.Planes[0]; tl != nil {
			act, rtt := tl.Action.Snapshot(), tl.RTT.Snapshot()
			fmt.Fprintf(&b, "  sender action latency p50/p99/max: %d/%d/%d ns; rtt p50: %d ns (%d samples)\n",
				act.P50, act.P99, act.Max, rtt.P50, rtt.Count)
			break
		}
	}
	return b.String()
}

// AttestReport runs the attestation and returns both the JSON report —
// the arms, plus the planes the first telemetered arm observed — and the
// formatted text.
func AttestReport(o Options, arms ...Sinks) (Report, string) {
	a := Attest(o, arms...)
	rep := Report{Attestation: &a}
	for _, arm := range a.Arms {
		if rep.Telemetry = telemetryJSON(arm.Planes); rep.Telemetry != nil {
			break
		}
	}
	return rep, a.Text
}

// PlaneJSON is one host's full telemetry plane: the four hot-path
// latency histograms and the executor profile.
type PlaneJSON struct {
	Host    string                 `json:"host"`
	Action  telemetry.HistSnapshot `json:"action_latency_ns"`
	RTT     telemetry.HistSnapshot `json:"rtt_sample_ns"`
	Read    telemetry.HistSnapshot `json:"read_latency_ns"`
	Write   telemetry.HistSnapshot `json:"write_latency_ns"`
	Profile telemetry.ProfReport   `json:"profile"`
}

func planeJSON(host string, tl *telemetry.Telemetry) *PlaneJSON {
	if tl == nil {
		return nil
	}
	return &PlaneJSON{
		Host:    host,
		Action:  tl.Action.Snapshot(),
		RTT:     tl.RTT.Snapshot(),
		Read:    tl.Read.Snapshot(),
		Write:   tl.Write.Snapshot(),
		Profile: tl.Prof.Report(),
	}
}

// TelemetryJSON is the plane snapshot attached to a structured run:
// sender and receiver planes.
type TelemetryJSON struct {
	Sender   *PlaneJSON `json:"sender,omitempty"`
	Receiver *PlaneJSON `json:"receiver,omitempty"`
}

func telemetryJSON(planes [2]*telemetry.Telemetry) *TelemetryJSON {
	if planes[0] == nil && planes[1] == nil {
		return nil
	}
	return &TelemetryJSON{
		Sender:   planeJSON("host1", planes[0]),
		Receiver: planeJSON("host2", planes[1]),
	}
}
