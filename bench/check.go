package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verifySeconds sizes the -verify runs: a fiftieth of a full run is
// enough to cross every phase of every workload, loss recovery included.
const verifySeconds = 0.2

// fingerprint is what two runs of one workload and seed must share: the
// exact metrics, the delivery digest and the raw counter deltas.
func fingerprint(sp spec, d runData) map[string]string {
	fp := map[string]string{
		"digest": fmt.Sprintf("%x", d.digest),
		"virt":   d.virt.String(),
		"counts": fmt.Sprint(d.counts),
	}
	m := untracedMetrics(sp, d, nil)
	for _, def := range allMetrics() {
		if def.exact {
			fp[def.name] = formatValue(m[def.name])
		}
	}
	return fp
}

// verifyDeterminism runs each workload twice untraced and once behind
// the tracing shim, at equal size, and fails unless all three share a
// fingerprint: the virtual timeline does not depend on the machine, and
// the shim is an observer that moves not one virtual nanosecond.
func verifyDeterminism(w io.Writer, run []spec, seed uint64) int {
	status := 0
	for _, sp := range run {
		warm, timed := sp.size(verifySeconds)
		var prints [3]map[string]string
		for i := range prints {
			d, err := execute(sp, seed, warm, timed, i == 2)
			if err != nil {
				fmt.Fprintf(w, "%s: %v\n", sp.name, err)
				return 1
			}
			prints[i] = fingerprint(sp, d)
		}
		diffs := append(diffPrints("second run", prints[0], prints[1]), diffPrints("behind the shim", prints[0], prints[2])...)
		if len(diffs) == 0 {
			fmt.Fprintf(w, "%s identical: %d exact values, digest %s, twice untraced and once behind the shim\n",
				sp.name, len(prints[0]), prints[0]["digest"])
			continue
		}
		status = 1
		for _, d := range diffs {
			fmt.Fprintf(w, "%s DIFFERS %s\n", sp.name, d)
		}
	}
	return status
}

func diffPrints(label string, a, b map[string]string) []string {
	var out []string
	for name, va := range a {
		if vb := b[name]; va != vb {
			out = append(out, fmt.Sprintf("%s: %s = %s, first run %s", label, name, vb, va))
		}
	}
	sort.Strings(out)
	return out
}

// worsening is how much worse b is than a as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if def.higher {
		rel = -rel
	}
	return rel
}

// agreement runs every workload's end-to-end pass twice and fails when
// a metric of the second pass is outside its bound of the first in
// either direction, or an exact metric differs at all.
func agreement(w io.Writer, run []spec, o options) int {
	o.trace = false
	status := 0
	fmt.Fprintf(w, "%-10s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "spread", "bound")
	for _, sp := range run {
		var pass [2]result
		for i := range pass {
			res, err := runWorkload(sp, o)
			if err != nil {
				fmt.Fprintf(w, "%s: %v\n", sp.name, err)
				return 1
			}
			pass[i] = res
		}
		for _, def := range endToEnd {
			a, b := pass[0].Metrics[def.name], pass[1].Metrics[def.name]
			spread := math.Abs(worsening(def, a, b))
			verdict := ""
			if spread > def.bound || def.exact && a != b {
				verdict = "  DISAGREE"
				status = 1
			}
			fmt.Fprintf(w, "%-10s %-20s %14.6g %14.6g %8.3f%% %6.1f%%%s\n", sp.name, def.name, a, b, spread*100, def.bound*100, verdict)
		}
		for _, def := range perLayer {
			if a, b := pass[0].Metrics[def.name], pass[1].Metrics[def.name]; def.exact && a != b {
				fmt.Fprintf(w, "%-10s %-20s %14.6g %14.6g  DISAGREE (exact metric)\n", sp.name, def.name, a, b)
				status = 1
			}
		}
		if pass[0].Digest != pass[1].Digest || !pass[0].Correct || !pass[1].Correct {
			fmt.Fprintf(w, "%-10s digests %s %s, failed %d %d  DISAGREE\n", sp.name, pass[0].Digest, pass[1].Digest, pass[0].Failed, pass[1].Failed)
			status = 1
		}
	}
	return status
}

func readSuite(path string) (suite, error) {
	var doc suite
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != suiteSchema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, suiteSchema)
	}
	return doc, nil
}

// compareFiles prints one row per workload and end-to-end metric of two
// -o documents: the change from a to b and whether it is better, worse
// or within the metric's bound. It returns 1 when any row is worse.
func compareFiles(w, stderr io.Writer, pathA, pathB string) int {
	var docs [2]suite
	for i, path := range []string{pathA, pathB} {
		doc, err := readSuite(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		docs[i] = doc
	}
	return compareSuites(w, docs[0], docs[1])
}

func compareSuites(w io.Writer, a, b suite) int {
	if a.Settings != b.Settings {
		fmt.Fprintf(w, "settings differ: %+v vs %+v\n", a.Settings, b.Settings)
	}
	byName := map[string]result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	status := 0
	fmt.Fprintf(w, "%-10s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, def := range endToEnd {
			va, vb := ra.Metrics[def.name], rb.Metrics[def.name]
			worse := worsening(def, va, vb)
			verdict := "within bound"
			switch {
			case worse > def.bound:
				verdict = "WORSE"
				status = 1
			case worse < -def.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-10s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", ra.Workload, def.name, va, vb, (vb-va)/math.Abs(va)*100, def.bound*100, verdict)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-10s failed transactions %d -> %d  WORSE\n", ra.Workload, ra.Failed, rb.Failed)
			status = 1
		}
	}
	return status
}
