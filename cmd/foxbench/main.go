// Command foxbench regenerates the paper's evaluation tables on the
// simulated substrate:
//
//	foxbench -table 1        Table 1 (throughput + round trip, both TCPs)
//	foxbench -table 2        Table 2 (execution profile, sender+receiver)
//	foxbench -gc             the §5 garbage-collection experiment
//	foxbench -ablate         design-choice ablations (DESIGN.md §5)
//	foxbench -flight         observer attestation: unobserved vs journaled vs sealed
//	foxbench -telemetry      observer attestation: unobserved vs telemetered
//	foxbench -all            everything
//
// Flags -bytes, -window, -scale, -loss, -seed, -rounds adjust the
// workload; defaults reproduce the paper's setup (10^6 bytes, 4096-byte
// window, 10 Mb/s wire, CPU scaled 1000× to a DECstation 5000/125).
// -fault runs the throughput transfers under a scripted fault schedule
// (a built-in scenario name — flap, partition, burst, squeeze — or a
// .fsched file), measuring degradation and recovery instead of the
// clean-wire numbers.
//
// -flight and -telemetry are arms of one attestation (experiments.Attest):
// given together, the same run also measures every sink attached at once.
//
// -json renders the requested tables (1 and/or 2) as a versioned
// foxbench/v3 document instead of text; -o writes it to a file. The
// Table 1 JSON runs the structured arm with telemetry attached, so the
// document carries per-action latency percentiles and the sender's
// cwnd trace alongside the aggregate figures.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "paper table to regenerate (1 or 2)")
	gc := flag.Bool("gc", false, "run the garbage-collection experiment")
	ablate := flag.Bool("ablate", false, "run the design-choice ablations")
	flightB := flag.Bool("flight", false, "attest the flight recorder and its sealed variant on the bulk transfer (virtual results identical off/on, wall overhead)")
	telemetryB := flag.Bool("telemetry", false, "attest the telemetry plane on the bulk transfer (virtual results identical off/on, wall overhead)")
	sweep := flag.Bool("sweep", false, "sweep TCP window sizes for both implementations")
	lossSweep := flag.Bool("losssweep", false, "sweep wire loss rates for both implementations")
	all := flag.Bool("all", false, "run everything")
	bytes := flag.Int("bytes", 1_000_000, "transfer size in bytes")
	window := flag.Int("window", 4096, "TCP window in bytes")
	scale := flag.Float64("scale", 1000, "CPU scale factor (modern ns -> 1994 virtual ns)")
	nocharge := flag.Bool("nocharge", false, "disable CPU charging (deterministic wire-limited run)")
	loss := flag.Float64("loss", 0, "wire loss probability")
	seed := flag.Uint64("seed", 1, "fault-injection seed")
	rounds := flag.Int("rounds", 100, "round trips for the RTT experiment")
	smlera := flag.Bool("smlera", false, "charge the paper's 1994 per-KB copy/checksum costs (Table 1 full-factor mode)")
	smlfactor := flag.Float64("smlfactor", 0, "multiply Fox hosts' CPU charges, modeling SML/NJ code generation (try 5)")
	faultFlag := flag.String("fault", "", "fault scenario (built-in name or .fsched file) applied to throughput runs")
	jsonOut := flag.Bool("json", false, "emit table results as JSON (tables 1 and 2 only)")
	outPath := flag.String("o", "", "write JSON to this file instead of stdout")
	flag.Parse()

	if *faultFlag != "" {
		if _, err := experiments.FaultSchedule(*faultFlag); err != nil {
			fmt.Fprintln(os.Stderr, "foxbench:", err)
			os.Exit(2)
		}
	}

	o := experiments.Options{
		Bytes:     *bytes,
		Window:    *window,
		CPUScale:  *scale,
		NoCharge:  *nocharge,
		Loss:      *loss,
		Seed:      *seed,
		Rounds:    *rounds,
		SMLEra:    *smlera,
		SMLFactor: *smlfactor,
		Fault:     *faultFlag,
	}

	var arms []experiments.Sinks
	if *flightB || *all {
		arms = append(arms, experiments.SinkFlight, experiments.SinkSeal)
	}
	if *telemetryB || *all {
		arms = append(arms, experiments.SinkTelemetry)
	}
	if len(arms) == 3 {
		arms = append(arms, experiments.SinkSeal|experiments.SinkTelemetry)
	}

	if *jsonOut {
		var reports []experiments.Report
		if *table == 1 || *all {
			r, _ := experiments.Table1Report(o)
			reports = append(reports, r)
		}
		if *table == 2 || *all {
			r, _ := experiments.Table2Report(o)
			reports = append(reports, r)
		}
		if len(arms) > 0 {
			r, _ := experiments.AttestReport(o, arms...)
			reports = append(reports, r)
		}
		if len(reports) == 0 {
			fmt.Fprintln(os.Stderr, "foxbench: -json requires -table 1, -table 2, -flight, -telemetry, or -all")
			os.Exit(2)
		}
		b, err := experiments.NewDocument(o, reports...).Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, "foxbench:", err)
			os.Exit(1)
		}
		if *outPath != "" {
			if err := os.WriteFile(*outPath, b, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "foxbench:", err)
				os.Exit(1)
			}
			return
		}
		os.Stdout.Write(b)
		return
	}

	ran := false
	if *table == 1 || *all {
		ran = true
		start := time.Now()
		_, _, _, _, text := experiments.Table1(o)
		fmt.Println(text)
		fmt.Printf("  (real time: %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *table == 2 || *all {
		ran = true
		_, text := experiments.Table2(o)
		fmt.Println(text)
	}
	if len(arms) > 0 {
		ran = true
		fmt.Println(experiments.Attest(o, arms...).Text)
	}
	if *gc || *all {
		ran = true
		fmt.Println(experiments.GCExperiment(o).Text)
	}
	if *ablate || *all {
		ran = true
		fmt.Println(experiments.RunAblations(o))
	}
	if *sweep || *all {
		ran = true
		_, text := experiments.WindowSweep(o, nil)
		fmt.Println(text)
	}
	if *lossSweep || *all {
		ran = true
		_, text := experiments.LossSweep(o, nil)
		fmt.Println(text)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
