// Command foxvet is the repro tree's multichecker: it runs the thirteen
// structural analyzers from internal/analysis over the module and exits
// non-zero on any diagnostic. The passes machine-check the invariants
// the paper got from ML's module system — wrap-safe sequence arithmetic
// (seqcmp), the single-door state machine (singledoor), its RFC 793
// conformance (statemachine), the quasi-synchronous event discipline
// (quasisync), its scheduler-blocking dual (noblock), the single-copy
// data path by allocation (hotpathalloc) and by interprocedural payload
// flow (copyflow), the Fig. 9 layer DAG (layering), value-range
// width-safety on the datapath's conversions, shifts, and offsets
// (intrange) — plus the atomic-counter contract from the metrics PR
// (atomiccounter), the socket-lifecycle session types (sessiontype),
// the executor escape proof (shardaffinity), and wire-data validation
// (taint).
//
// Usage:
//
//	foxvet [-tests] [-list] [-json] [-run names] [-baseline file]
//	       [-write-baseline file] [-statemachine-dot] [-sessiontype-dot]
//	       [-copyflow-dot] [packages...]
//
// Package patterns follow the usual shape: ./... walks the module,
// import paths name single packages. With no arguments foxvet runs on
// ./... relative to the current directory.
//
// -json emits a report object {schema, analyzers, findings} on stdout
// for CI artifact upload — schema names the report format version
// (foxvet/v2), analyzers records which passes produced it, findings is
// the array of {file, line, col, analyzer, message}; the exit status
// still reflects whether findings exist. -run restricts the run to a
// comma-separated subset of analyzers so CI can isolate one per job.
// -statemachine-dot extracts the setState transition relation from the
// loaded packages and prints it as Graphviz annotated against the RFC
// 793 table, then exits; -sessiontype-dot does the same for the proved
// socket-lifecycle protocol, and -copyflow-dot for the proved copy map
// of the zero-copy datapath (sanctioned, boundary, and violating copy
// sites per layer).
//
// -baseline suppresses findings recorded in a baseline file (matched by
// file, analyzer, and message — positions may drift, content may not)
// so a new analyzer can land before the last legacy finding is fixed;
// the suppressed count is reported on stderr and anything not in the
// baseline still fails the run. -write-baseline records the current
// findings to a file and exits zero. Baselines are debt ledgers, not
// allowlists: shrink them, never grow them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomiccounter"
	"repro/internal/analysis/copyflow"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/intrange"
	"repro/internal/analysis/layering"
	"repro/internal/analysis/load"
	"repro/internal/analysis/noblock"
	"repro/internal/analysis/quasisync"
	"repro/internal/analysis/seqcmp"
	"repro/internal/analysis/sessiontype"
	"repro/internal/analysis/shardaffinity"
	"repro/internal/analysis/singledoor"
	"repro/internal/analysis/statemachine"
	"repro/internal/analysis/taint"
)

var analyzers = []*analysis.Analyzer{
	atomiccounter.Analyzer,
	copyflow.Analyzer,
	hotpathalloc.Analyzer,
	intrange.Analyzer,
	layering.Analyzer,
	noblock.Analyzer,
	quasisync.Analyzer,
	seqcmp.Analyzer,
	sessiontype.Analyzer,
	shardaffinity.Analyzer,
	singledoor.Analyzer,
	statemachine.Analyzer,
	taint.Analyzer,
}

// options collects everything main parses from the command line, so the
// run logic is callable from tests.
type options struct {
	tests      bool
	jsonOut    bool
	dot        bool
	sessionDot bool
	copyDot    bool
	run        string
	patterns   []string
	dir        string
	stdout     io.Writer
	stderr     io.Writer
}

// finding is the JSON shape one diagnostic exports.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// reportSchema versions the -json report shape so CI consumers can
// detect format changes instead of guessing from field presence.
// foxvet/v2 wrapped the bare v1 findings array in {schema, analyzers,
// findings}.
const reportSchema = "foxvet/v2"

// report is the -json output: self-describing so an archived artifact
// records which format and which passes produced it.
type report struct {
	Schema    string    `json:"schema"`
	Analyzers []string  `json:"analyzers"`
	Findings  []finding `json:"findings"`
}

func main() {
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	dot := flag.Bool("statemachine-dot", false, "print the extracted TCP state machine as Graphviz and exit")
	sessionDot := flag.Bool("sessiontype-dot", false, "print the proved socket session protocol as Graphviz and exit")
	copyDot := flag.Bool("copyflow-dot", false, "print the proved copy map of the zero-copy datapath as Graphviz and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: foxvet [-tests] [-list] [-json] [-run names] [-statemachine-dot] [-sessiontype-dot] [-copyflow-dot] [packages...]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Registered analyzers:\n")
		printAnalyzers(flag.CommandLine.Output())
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		printAnalyzers(os.Stdout)
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("foxvet: %v", err)
	}
	opts := options{
		tests:      *tests,
		jsonOut:    *jsonOut,
		dot:        *dot,
		sessionDot: *sessionDot,
		copyDot:    *copyDot,
		run:        *run,
		patterns:   flag.Args(),
		dir:        cwd,
		stdout:     os.Stdout,
		stderr:     os.Stderr,
	}
	code, err := vet(opts)
	if err != nil {
		fatalf("foxvet: %v", err)
	}
	os.Exit(code)
}

// selectAnalyzers resolves the -run flag against the registry.
func selectAnalyzers(runFlag string) ([]*analysis.Analyzer, error) {
	if runFlag == "" {
		return analyzers, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list to see the registry)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return out, nil
}

// vet loads the requested packages, runs the multichecker (or a dot
// extraction), and returns the process exit code.
func vet(opts options) (int, error) {
	selected, err := selectAnalyzers(opts.run)
	if err != nil {
		return 0, err
	}
	patterns := opts.patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, _, err := load.LoadModule(opts.dir, opts.tests, patterns...)
	if err != nil {
		return 0, err
	}
	if len(pkgs) == 0 {
		return 0, nil
	}

	if opts.dot {
		m := statemachine.Extract(pkgs)
		if m == nil {
			return 0, fmt.Errorf("no state machine found in the loaded packages")
		}
		fmt.Fprint(opts.stdout, m.Dot())
		return 0, nil
	}
	if opts.sessionDot {
		dot, err := sessiontype.Extract(pkgs)
		if err != nil {
			return 0, err
		}
		fmt.Fprint(opts.stdout, dot)
		return 0, nil
	}
	if opts.copyDot {
		dot, err := copyflow.Extract(pkgs)
		if err != nil {
			return 0, err
		}
		fmt.Fprint(opts.stdout, dot)
		return 0, nil
	}

	diags, err := analysis.Run(pkgs, selected)
	if err != nil {
		return 0, err
	}
	// The loader threads one FileSet through every package, so any
	// package's Fset resolves any diagnostic's position.
	fset := pkgs[0].Fset
	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		findings = append(findings, finding{
			File:     relFile(opts.dir, pos.Filename),
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}

	if opts.jsonOut {
		names := make([]string, len(selected))
		for i, a := range selected {
			names[i] = a.Name
		}
		sort.Strings(names)
		enc := json.NewEncoder(opts.stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(report{Schema: reportSchema, Analyzers: names, Findings: findings}); err != nil {
			return 0, err
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(opts.stderr, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1, nil
	}
	return 0, nil
}

// relFile normalizes a diagnostic's file to a module-relative path, so
// a report reads the same from any checkout.
func relFile(dir, file string) string {
	if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

func printAnalyzers(w io.Writer) {
	sorted := append([]*analysis.Analyzer(nil), analyzers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, a := range sorted {
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, a.Doc)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
