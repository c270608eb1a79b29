package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func better(def metricDef) string {
	if def.higher {
		return "higher"
	}
	return "lower"
}

func TestManifestMatchesTheProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := m.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: manifest %q %q, program %q %q", i, w.Name, w.Why, sp.name, sp.why)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", sp.name, len(sp.why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != better(def) {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, def)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != def.bound {
				t.Errorf("%s: bound in manifest %v, in program %v", def.name, g.Bound, def.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// metricLines parses "workload metric value unit" lines.
func metricLines(t *testing.T, out string) (names []string, units map[string]string) {
	t.Helper()
	units = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("line %q is not `workload metric value unit`", line)
		}
		names = append(names, f[1])
		units[f[1]] = f[3]
	}
	return names, units
}

func TestQuickPrintsExactlyTheManifestMetrics(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-workload", "rr_1b"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	m := readManifest(t)
	var want []string
	for _, mm := range append(m.EndToEnd, m.PerLayer...) {
		want = append(want, mm.Name)
	}
	got, units := metricLines(t, out.String())
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("printed metrics\n %v\nwant the manifest's\n %v", got, want)
	}
	for _, mm := range append(m.EndToEnd, m.PerLayer...) {
		if units[mm.Name] != mm.Unit {
			t.Errorf("%s printed in %q, manifest says %q", mm.Name, units[mm.Name], mm.Unit)
		}
	}
	checkLastLine(t, out.String(), m.PerLayer)
}

// checkLastLine checks the machine-readable result a single-workload run
// ends with: exactly four keys, and exactly the given metrics.
func checkLastLine(t *testing.T, out string, want []manifestMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want 4", len(last))
	}
	var metrics map[string]struct {
		Value *float64
		Unit  string
	}
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("last line carries %d metrics, want %d", len(metrics), len(want))
	}
	for _, mm := range want {
		if got, ok := metrics[mm.Name]; !ok || got.Value == nil || got.Unit != mm.Unit {
			t.Errorf("last line metric %s = %+v, want a value in %s", mm.Name, got, mm.Unit)
		}
	}
	if string(last["correct"]) != "true" || string(last["failed"]) != "0" {
		t.Errorf("correct %s failed %s", last["correct"], last["failed"])
	}
}

func TestEveryWorkloadRunsCleanAtAHundredth(t *testing.T) {
	m := readManifest(t)
	for _, sp := range specs {
		var out, errOut bytes.Buffer
		args := []string{"--workload", sp.name, "--seed", "3", "--seconds", "0.1", "--trace", "0"}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s", sp.name, code, errOut.String())
		}
		checkLastLine(t, out.String(), m.EndToEnd)
		res, err := runWorkload(sp, options{seed: 3, seconds: 0.1, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || !res.Correct || res.Metrics["app.txn_failed_ratio"] != 0 {
			t.Errorf("%s: %d of %d transactions failed", sp.name, res.Failed, res.Attempted)
		}
		for _, def := range endToEnd {
			if v := res.Metrics[def.name]; !(v > 0) {
				t.Errorf("%s %s = %v: an end-to-end metric is never 0", sp.name, def.name, v)
			}
		}
	}
}

func TestVerifyAttestsDeterminism(t *testing.T) {
	var out bytes.Buffer
	if code := verifyDeterminism(&out, specs, 2); code != 0 {
		t.Fatalf("-verify failed:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "identical"); n != len(specs) {
		t.Errorf("%d workloads attested, want %d:\n%s", n, len(specs), out.String())
	}
}

func TestCompareReportsBetterWorseAndWithin(t *testing.T) {
	base := map[string]float64{}
	for _, def := range endToEnd {
		base[def.name] = 100
	}
	changed := map[string]float64{}
	for k, v := range base {
		changed[k] = v
	}
	changed["wall_us_per_txn"] = 130   // lower is better: worse by 30 %
	changed["wall_goodput_MBps"] = 130 // higher is better: better by 30 %
	changed["allocs_per_txn"] = 101    // inside the 2 % bound
	a := suite{Schema: suiteSchema, Results: []result{{Workload: "w", Metrics: base}}}
	b := suite{Schema: suiteSchema, Results: []result{{Workload: "w", Metrics: changed}}}
	var out bytes.Buffer
	if code := compareSuites(&out, a, b); code != 1 {
		t.Errorf("exit %d, want 1 for a worse metric", code)
	}
	for metric, verdict := range map[string]string{"wall_us_per_txn": "WORSE", "wall_goodput_MBps": "better", "allocs_per_txn": "within bound"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				found = strings.HasSuffix(line, verdict)
			}
		}
		if !found {
			t.Errorf("%s not reported %q in:\n%s", metric, verdict, out.String())
		}
	}
	if code := compareSuites(&out, a, a); code != 0 {
		t.Errorf("a document against itself: exit %d", code)
	}
}
