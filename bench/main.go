// Command bench is the repository's benchmark: five closed-loop
// transaction workloads over two foxnet hosts, end-to-end metrics from
// an untraced run, and per-layer metrics from counters, a traced run and
// ladder rigs — all taken from outside the stack, through exported
// functions only. See README.md in this directory.
//
//	go run ./bench                     every workload, every metric
//	go run ./bench -workload rr_1b     one workload; the last line is a JSON result
//	go run ./bench -verify             determinism attestation
//	go run ./bench -agree              two full end-to-end passes must agree
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the settings of one workload run.
type options struct {
	seed    uint64
	seconds float64 // nominal length of the timed phase, see spec.rate
	trace   bool    // also take the traced run, the rigs and the baseline control
	setups  int     // how many times to set up; setup_s is their median
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`

	spans []span // of the traced run, for -trace-out
}

// suite is the document -o writes and -compare reads.
type suite struct {
	Schema   string   `json:"schema"`
	Settings settings `json:"settings"`
	Results  []result `json:"results"`
}

// settings are the harness conditions that make two documents
// comparable.
type settings struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	ChargeCPU  bool    `json:"charge_cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmShare  float64 `json:"warm_share"`
	Setups     int     `json:"setups"`
	Traced     bool    `json:"traced"`
}

const suiteSchema = "foxnet-bench/v1"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed for the wire's loss draws, the cable-length jitter and the reply pattern")
	seconds := fs.Float64("seconds", 10, "nominal length of each workload's timed phase; the work done is rate × seconds transactions, fixed per workload")
	trace := fs.Int("trace", 1, "1: also run traced, the ladder rigs and the baseline control, and report the per-layer metrics; 0: end-to-end metrics only")
	quick := fs.Bool("quick", false, "a fast look: half a second per workload and one set-up")
	verify := fs.Bool("verify", false, "attest determinism: each workload twice untraced and once behind the shim must agree exactly")
	agree := fs.Bool("agree", false, "run every workload's end-to-end pass twice and fail if any metric differs by more than its bound")
	compare := fs.Bool("compare", false, "compare two -o documents given as arguments")
	traceOut := fs.String("trace-out", "", "write the traced run's spans as Chrome trace JSON (one workload only)")
	out := fs.String("o", "", "write the results as a JSON document")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The stack is one logical thread by construction — internal/sim
	// hands the processor from goroutine to goroutine — and on one P the
	// hand-off does not cross cores, which halves the run-to-run spread.
	runtime.GOMAXPROCS(1)

	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two documents"))
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	run := specs
	if *workload != "all" {
		sp, ok := findSpec(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []spec{sp}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 5}
	if *quick {
		o.seconds, o.setups = 0.5, 1
	}
	switch {
	case *verify:
		return verifyDeterminism(stdout, run, o.seed)
	case *agree:
		return agreement(stdout, run, o)
	}
	if *traceOut != "" && (len(run) != 1 || !o.trace) {
		return fail(fmt.Errorf("-trace-out needs one -workload and -trace 1"))
	}

	doc := suite{Schema: suiteSchema, Settings: settings{
		GOMAXPROCS: 1, Seed: o.seed, Seconds: o.seconds, WarmShare: warmShare, Setups: o.setups, Traced: o.trace}}
	for _, sp := range run {
		res, err := runWorkload(sp, o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", sp.name, err))
		}
		printResult(stdout, res, o.trace)
		if *traceOut == "" {
			res.spans = nil // up to a million spans per workload, wanted only for -trace-out
		}
		doc.Results = append(doc.Results, res)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return writeChromeTrace(w, doc.Results[0].spans) }); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := writeFile(*out, func(w io.Writer) error { return encodeIndented(w, doc) }); err != nil {
			return fail(err)
		}
	}
	if len(run) == 1 {
		// The machine-readable last line: the end-to-end metrics of an
		// untraced pass, or the per-layer metrics of a traced one.
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		if err := json.NewEncoder(stdout).Encode(lastLine(doc.Results[0], defs)); err != nil {
			return fail(err)
		}
	}
	for _, res := range doc.Results {
		if !res.Correct {
			return fail(fmt.Errorf("%s: %d of %d transactions failed", res.Workload, res.Failed, res.Attempted))
		}
	}
	return 0
}

// runWorkload measures one workload: set-ups, the untraced run, and with
// o.trace the traced run, the rigs and the baseline control.
func runWorkload(sp spec, o options) (result, error) {
	warm, timed := sp.size(o.seconds)
	var setups []time.Duration
	for i := 1; i < o.setups; i++ {
		d, err := execute(sp, o.seed, warm, 0, false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.setup)
	}
	runtime.GC()
	d, err := execute(sp, o.seed, warm, timed, false)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, d.setup)
	res := result{Workload: sp.name, Seed: o.seed, Attempted: d.attempted, Failed: d.failed,
		Digest: strconv.FormatUint(d.digest, 16), Metrics: untracedMetrics(sp, d, setups)}
	if o.trace {
		// A fifth of the work is enough for per-segment averages, and keeps
		// the span buffer small.
		twarm, ttimed := sp.size(o.seconds / 5)
		runtime.GC()
		t, err := execute(sp, o.seed, twarm, ttimed, true)
		if err != nil {
			return result{}, err
		}
		runtime.GC()
		x, err := interleave(sp, o.seed, twarm, ttimed/sp.slice)
		if err != nil {
			return result{}, err
		}
		runtime.GC()
		tracedMetrics(res.Metrics, sp, d, t, measureRigs(frameBytes(d)), x)
		res.Attempted += t.attempted
		res.Failed += t.failed + x.failed
		res.spans = t.spans
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult writes one "workload metric value unit" line per metric.
func printResult(w io.Writer, res result, traced bool) {
	defs := endToEnd
	if traced {
		defs = allMetrics()
	}
	for _, def := range defs {
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, def.name, formatValue(res.Metrics[def.name]), def.unit)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// lastLine is the result object a single-workload run ends with.
func lastLine(res result, defs []metricDef) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range defs {
		metrics[def.name] = value{res.Metrics[def.name], def.unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}

func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
