package main

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// moduleRoot resolves the repository root; the loader wants an absolute
// directory, the way main passes the cwd.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRealModuleClean runs the full multichecker over the module the way
// CI does and requires zero findings: every invariant the analyzers
// encode must actually hold in the tree that ships them.
func TestRealModuleClean(t *testing.T) {
	var out, errOut strings.Builder
	code, err := vet(options{
		patterns: []string{"./..."},
		dir:      moduleRoot(t),
		stdout:   &out,
		stderr:   &errOut,
	})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if code != 0 {
		t.Fatalf("foxvet found violations in the real module:\n%s%s", errOut.String(), out.String())
	}
}

// TestJSONOutput checks the -json path produces a well-formed
// self-describing report on a clean tree: the schema version, the full
// analyzer registry, and an empty findings array.
func TestJSONOutput(t *testing.T) {
	var out, errOut strings.Builder
	code, err := vet(options{
		jsonOut:  true,
		patterns: []string{"./..."},
		dir:      moduleRoot(t),
		stdout:   &out,
		stderr:   &errOut,
	})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if code != 0 {
		t.Fatalf("unexpected findings:\n%s", out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out.String())
	}
	if rep.Schema != reportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, reportSchema)
	}
	if len(rep.Analyzers) != len(analyzers) {
		t.Fatalf("report names %d analyzers, registry has %d", len(rep.Analyzers), len(analyzers))
	}
	if !sort.StringsAreSorted(rep.Analyzers) {
		t.Fatalf("analyzer list not sorted: %v", rep.Analyzers)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("expected no findings on a clean tree, got %v", rep.Findings)
	}
}

// TestStateMachineDot checks the -statemachine-dot path extracts the
// real machine and renders Graphviz, and that the rendering is
// byte-identical across runs — CI diffs the artifact, so map iteration
// order must never leak into it.
func TestStateMachineDot(t *testing.T) {
	render := func() string {
		var out, errOut strings.Builder
		code, err := vet(options{
			dot:      true,
			patterns: []string{"./..."},
			dir:      moduleRoot(t),
			stdout:   &out,
			stderr:   &errOut,
		})
		if err != nil {
			t.Fatalf("vet: %v", err)
		}
		if code != 0 {
			t.Fatalf("unexpected exit code %d", code)
		}
		return out.String()
	}
	dot := render()
	for _, want := range []string{"digraph", "Listen", "Estab", "TimeWait"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
	if again := render(); again != dot {
		t.Fatalf("statemachine dot output is not deterministic:\n--- first\n%s\n--- second\n%s", dot, again)
	}
}

// TestSessionTypeDot checks the -sessiontype-dot path renders the
// proved socket protocol deterministically.
func TestSessionTypeDot(t *testing.T) {
	render := func() string {
		var out, errOut strings.Builder
		code, err := vet(options{
			sessionDot: true,
			patterns:   []string{"./..."},
			dir:        moduleRoot(t),
			stdout:     &out,
			stderr:     &errOut,
		})
		if err != nil {
			t.Fatalf("vet: %v", err)
		}
		if code != 0 {
			t.Fatalf("unexpected exit code %d", code)
		}
		return out.String()
	}
	dot := render()
	for _, want := range []string{"digraph", "Estab", "Closed", "sites"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("session dot output missing %q:\n%s", want, dot)
		}
	}
	if again := render(); again != dot {
		t.Fatalf("sessiontype dot output is not deterministic:\n--- first\n%s\n--- second\n%s", dot, again)
	}
}

// TestCopyFlowDot checks the -copyflow-dot path renders the proved copy
// map deterministically, with the sanctioned copies and the datapath
// clusters present.
func TestCopyFlowDot(t *testing.T) {
	render := func() string {
		var out, errOut strings.Builder
		code, err := vet(options{
			copyDot:  true,
			patterns: []string{"./..."},
			dir:      moduleRoot(t),
			stdout:   &out,
			stderr:   &errOut,
		})
		if err != nil {
			t.Fatalf("vet: %v", err)
		}
		if code != 0 {
			t.Fatalf("unexpected exit code %d", code)
		}
		return out.String()
	}
	dot := render()
	for _, want := range []string{"digraph copyflow", "cluster_tcp", "cluster_wire", "queueTake", "sanctioned"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("copyflow dot output missing %q:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, "color=red") {
		t.Fatalf("the shipped tree must not contain violating copy sites:\n%s", dot)
	}
	if again := render(); again != dot {
		t.Fatalf("copyflow dot output is not deterministic:\n--- first\n%s\n--- second\n%s", dot, again)
	}
}

// TestRunFilter checks -run restricts the registry and rejects unknown
// names.
func TestRunFilter(t *testing.T) {
	var out, errOut strings.Builder
	code, err := vet(options{
		run:      "seqcmp,taint",
		patterns: []string{"./internal/tcp"},
		dir:      moduleRoot(t),
		stdout:   &out,
		stderr:   &errOut,
	})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if code != 0 {
		t.Fatalf("unexpected findings:\n%s", errOut.String())
	}
	if _, err := vet(options{run: "nosuch", dir: moduleRoot(t), stdout: &out, stderr: &errOut}); err == nil {
		t.Fatal("expected an error for -run nosuch")
	}
}

// dirtyModule is a hermetic module (under testdata, so the real-module
// walk never sees it) seeding exactly one finding: a leaked connection.
func dirtyModule(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata/dirtymod")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDirtyModuleFindings: the seeded leak fails the run, reported
// with a module-relative path.
func TestDirtyModuleFindings(t *testing.T) {
	var out, errOut strings.Builder
	code, err := vet(options{patterns: []string{"./..."}, dir: dirtyModule(t), stdout: &out, stderr: &errOut})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if code != 1 || !strings.Contains(errOut.String(), "connection leak") {
		t.Fatalf("expected the seeded leak (exit 1), got exit %d:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "app/app.go") {
		t.Fatalf("findings should use module-relative paths:\n%s", errOut.String())
	}
}
