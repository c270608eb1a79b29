package experiments

import (
	"encoding/json"

	"repro/internal/profile"
	"repro/internal/telemetry"
)

// This file gives the evaluation a machine-readable shape: foxbench -json
// emits a Document so the tables can be diffed, plotted, and regression-
// checked across revisions instead of scraped out of aligned text.

// SchemaV1 identified the original JSON layout; SchemaV2 added the
// telemetry section (hot-path latency percentiles, executor profile,
// per-connection series) to the Table 1 structured run, as a pure
// superset. SchemaV3 replaces V2's separate flight and
// telemetry_overhead reports with the one attestation report; the
// tables are unchanged. The series left the telemetry section when it
// became a view over the flight journal (flight.Series).
const (
	SchemaV1 = "foxbench/v1"
	SchemaV2 = "foxbench/v2"
	SchemaV3 = "foxbench/v3"
)

// Document is the top-level object foxbench -json writes: one entry per
// table requested on the command line.
type Document struct {
	Schema  string        `json:"schema"`
	Options ReportOptions `json:"options"`
	Reports []Report      `json:"reports"`
}

// ReportOptions echoes the workload parameters a run used, with defaults
// filled in, so a result file is self-describing.
type ReportOptions struct {
	Bytes     int     `json:"bytes"`
	Window    int     `json:"window"`
	CPUScale  float64 `json:"cpu_scale"`
	NoCharge  bool    `json:"no_charge,omitempty"`
	Loss      float64 `json:"loss,omitempty"`
	Seed      uint64  `json:"seed"`
	Rounds    int     `json:"rounds"`
	SMLEra    bool    `json:"sml_era,omitempty"`
	SMLFactor float64 `json:"sml_factor,omitempty"`
}

// Report is one regenerated table or auxiliary measurement.
type Report struct {
	Table           int            `json:"table,omitempty"`
	Throughput      []TransferJSON `json:"throughput,omitempty"`
	RoundTrip       []RTTJSON      `json:"round_trip,omitempty"`
	SenderProfile   *ProfileJSON   `json:"sender_profile,omitempty"`
	ReceiverProfile *ProfileJSON   `json:"receiver_profile,omitempty"`
	// Telemetry carries the structured run's plane snapshots (latency
	// percentiles, executor profile, cwnd trace); Attestation the
	// observers' off/on purity check and cost measurement.
	Telemetry   *TelemetryJSON `json:"telemetry,omitempty"`
	Attestation *Attestation   `json:"attestation,omitempty"`
}

// TransferJSON is one bulk-transfer measurement.
type TransferJSON struct {
	Impl           string  `json:"impl"`
	Bytes          int     `json:"bytes"`
	ElapsedNS      int64   `json:"elapsed_ns"`
	ThroughputMbps float64 `json:"throughput_mbps"`
	Retransmits    uint64  `json:"retransmits"`
	SegsSent       uint64  `json:"segs_sent"`
	NumGC          uint32  `json:"num_gc,omitempty"`
}

// RTTJSON is one ping-pong measurement.
type RTTJSON struct {
	Impl      string `json:"impl"`
	Rounds    int    `json:"rounds"`
	MeanRTTNS int64  `json:"mean_rtt_ns"`
	MinRTTNS  int64  `json:"min_rtt_ns"`
	MaxRTTNS  int64  `json:"max_rtt_ns"`
}

// ProfileJSON is a Table 2 execution profile. Copies and CopiesPerKB
// lift the CatCopy section count out of the rows: the one-copy datapath
// invariant (copyflow) predicts copies-per-KB stays flat as payload
// grows — one queueTake (or Read) copy per segment, nothing compounding.
type ProfileJSON struct {
	TotalNS     int64            `json:"total_ns"`
	NumGC       uint32           `json:"num_gc"`
	Sum         float64          `json:"sum_percent"`
	Copies      uint64           `json:"copies"`
	CopiesPerKB float64          `json:"copies_per_kb"`
	Rows        []ProfileRowJSON `json:"rows"`
}

// ProfileRowJSON is one profile category.
type ProfileRowJSON struct {
	Label   string  `json:"label"`
	TimeNS  int64   `json:"time_ns"`
	Percent float64 `json:"percent"`
	Busy    float64 `json:"busy_percent,omitempty"`
	Count   uint64  `json:"count"`
}

func (o Options) reportOptions() ReportOptions {
	o.fill()
	return ReportOptions{
		Bytes: o.Bytes, Window: o.Window, CPUScale: o.CPUScale,
		NoCharge: o.NoCharge, Loss: o.Loss, Seed: o.Seed, Rounds: o.Rounds,
		SMLEra: o.SMLEra, SMLFactor: o.SMLFactor,
	}
}

func transferJSON(r TransferResult) TransferJSON {
	return TransferJSON{
		Impl: r.Impl.String(), Bytes: r.Bytes,
		ElapsedNS:      int64(r.Elapsed),
		ThroughputMbps: r.ThroughputMbps,
		Retransmits:    r.Retransmits, SegsSent: r.SegsSent,
		NumGC: r.NumGC,
	}
}

func rttJSON(r RTTResult) RTTJSON {
	return RTTJSON{
		Impl: r.Impl.String(), Rounds: r.Rounds,
		MeanRTTNS: int64(r.MeanRTT), MinRTTNS: int64(r.MinRTT), MaxRTTNS: int64(r.MaxRTT),
	}
}

func profileJSON(r profile.Report, bytes int) *ProfileJSON {
	p := &ProfileJSON{TotalNS: int64(r.Total), NumGC: r.NumGC, Sum: r.Sum}
	for _, row := range r.Rows {
		p.Rows = append(p.Rows, ProfileRowJSON{
			Label: row.Label, TimeNS: int64(row.Time),
			Percent: row.Percent, Busy: row.Busy, Count: row.Count,
		})
		if row.Label == profile.CatCopy.String() {
			p.Copies = row.Count
			if bytes > 0 {
				p.CopiesPerKB = float64(row.Count) / (float64(bytes) / 1024)
			}
		}
	}
	return p
}

// Table1Report runs Table 1 and returns both the JSON report and the
// formatted text. The structured throughput arm runs with fresh
// telemetry planes attached (pure observation, so its numbers are the
// ones an unobserved run produces), giving the report per-action
// latency percentiles and the executor profile alongside the paper's
// aggregate figures.
func Table1Report(o Options) (Report, string) {
	planes := [2]*telemetry.Telemetry{telemetry.New(), telemetry.New()}
	to := o
	to.Telemetry = []*telemetry.Telemetry{planes[0], planes[1]}
	foxT := Throughput(Structured, to)
	xkT := Throughput(XKernelBaseline, o)
	foxR := RoundTrip(Structured, o)
	xkR := RoundTrip(XKernelBaseline, o)
	return Report{
		Table:      1,
		Throughput: []TransferJSON{transferJSON(foxT), transferJSON(xkT)},
		RoundTrip:  []RTTJSON{rttJSON(foxR), rttJSON(xkR)},
		Telemetry:  telemetryJSON(planes),
	}, table1Text(foxT, xkT, foxR, xkR)
}

// Table2Report runs Table 2 and returns both the JSON report and the
// formatted text.
func Table2Report(o Options) (Report, string) {
	r, text := Table2(o)
	return Report{
		Table:           2,
		Throughput:      []TransferJSON{transferJSON(r)},
		SenderProfile:   profileJSON(r.Sender, r.Bytes),
		ReceiverProfile: profileJSON(r.Receiver, r.Bytes),
	}, text
}

// NewDocument wraps reports in the versioned envelope.
func NewDocument(o Options, reports ...Report) Document {
	return Document{Schema: SchemaV3, Options: o.reportOptions(), Reports: reports}
}

// Marshal renders the document as indented JSON with a trailing newline.
func (d Document) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
