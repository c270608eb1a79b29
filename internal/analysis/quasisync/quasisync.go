// Package quasisync machine-checks the paper's central control-structure
// rule: asynchronous events are only allowed to *enqueue* tcp_actions;
// the to_do queue is drained synchronously by the thread that enqueued.
// "Message receptions and timer expirations only enqueue actions on the
// owning connection's to_do queue" — that is what makes behavior
// deterministic and each module testable in isolation.
//
// Concretely: code reachable from an asynchronous entry point — a timer
// callback handed to internal/timers' Start, or a wire-delivery handler
// handed to a lower layer's Attach — must not call into the synchronous
// Receive/Send/Resend modules (the functions declared in receive.go,
// send.go, resend.go, fastpath.go). The only sanctioned doors are the
// executor's enqueue/run/perform, which the traversal treats as a
// boundary and does not look inside.
//
// The observer seam faces the inverse rule: functions declared in
// observe.go feed the counters, the event ring, the trace, the flight
// journal and the telemetry plane from what crosses the executor's
// door, so they must observe only — never call the boundary, never
// enter the synchronous modules. An observer that enqueued would make an
// observed run diverge from the same run unobserved, which the purity
// matrix and cmd/foxreplay's replay-and-diff would then catch
// dynamically; this pass catches it structurally. The sinks themselves
// (internal/flight, internal/flight/seal, internal/telemetry,
// internal/stats, internal/fault) need no rule of their own: the
// layering pass keeps them from importing internal/tcp at all, so the
// one file that can reach both them and the executor is the one
// guarded here.
//
// The traversal runs on the module-wide callgraph shared with the
// statemachine and noblock passes (built once per driver run): direct
// calls and method calls resolve; calls through stored function values
// do not, matching the structure of the stack (the async seams are
// exactly the callback registrations this pass uses as roots). The
// protected-module check stays within the package under analysis — file
// names like send.go only mean something inside internal/tcp.
package quasisync

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the quasisync pass.
var Analyzer = &analysis.Analyzer{
	Name: "quasisync",
	Doc:  "async entry points (timer callbacks, wire delivery) may only enqueue tcp_actions, never call Receive/Send/Resend directly; the observer seam (observe.go) observes only and never enqueues",
	Run:  run,
}

// protectedFiles hold the synchronous modules: functions declared in them
// may only run from the to_do drain.
var protectedFiles = map[string]bool{
	"receive.go":  true,
	"send.go":     true,
	"resend.go":   true,
	"fastpath.go": true,
}

// boundary names the executor functions async code may call; the
// traversal stops at them instead of descending into the drain.
var boundary = map[string]bool{
	"enqueue": true,
	"run":     true,
	"perform": true,
}

// observerFile holds the observer seam: functions declared there watch
// the executor's single door and so face the inverse constraint. An
// observer must never drive the machine it is observing: no
// enqueue/run/perform, and no calls into the protected synchronous
// modules.
const observerFile = "observe.go"

// allowedPackages exempts packages that attach wire handlers but sit
// outside the stack's quasi-synchronous discipline. The adversary is a
// raw segment injector — its delivery handler is a packet counter, not a
// TCP endpoint, so there is no to_do queue for it to enqueue onto.
var allowedPackages = map[string]bool{
	"repro/internal/adversary": true,
	"adversary":                true, // this analyzer's own golden testdata
}

// registrar reports whether the called function is an async registration
// point, returning a label for diagnostics and which arguments carry the
// asynchronously-invoked callbacks.
func registrar(fn *types.Func) (label string, ok bool) {
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	switch {
	case pkgName == "timers" && fn.Name() == "Start":
		return "timer callback (timers.Start)", true
	case pkgName == "sim" && fn.Name() == "Bind":
		return "timer callback (sim.Timer.Bind)", true
	case fn.Name() == "Attach":
		return "wire delivery handler (Attach)", true
	}
	return "", false
}

func run(pass *analysis.Pass) (any, error) {
	if allowedPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	g := pass.Shared.Memo("callgraph", func() any {
		return callgraph.Build(pass.Shared.Packages)
	}).(*callgraph.Graph)

	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callgraph.Callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			label, ok := registrar(fn)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || tv.Type == nil {
					continue
				}
				if _, isFunc := tv.Type.Underlying().(*types.Signature); !isFunc {
					continue
				}
				if root := g.RootFor(pass.TypesInfo, arg); root != nil {
					checkRoot(pass, g, root, label, reported)
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) != observerFile {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if node, ok := g.Funcs[fn]; ok {
				checkObserver(pass, g, node, reported)
			}
		}
	}
	return nil, nil
}

// checkObserver walks everything reachable from one observer function.
// Observers watch the executor from inside it, so unlike async roots the
// boundary is not a sanctioned door here — calling it is the violation.
func checkObserver(pass *analysis.Pass, g *callgraph.Graph, root *callgraph.Node, reported map[token.Pos]bool) {
	g.Walk(root, func(from *callgraph.Node, site *ast.CallExpr, callee *types.Func) bool {
		if boundary[callee.Name()] {
			if !reported[site.Pos()] {
				reported[site.Pos()] = true
				pass.Reportf(site.Pos(),
					"%s is an observer (declared in %s) and calls %s — the seam observes the executor, it must never drive it",
					from.Name(), observerFile, callee.Name())
			}
			return false
		}
		if file := declFile(pass, g, callee); file != "" && protectedFiles[file] {
			if !reported[site.Pos()] {
				reported[site.Pos()] = true
				pass.Reportf(site.Pos(),
					"%s is an observer (declared in %s) and calls %s, declared in %s — observers never enter the synchronous modules",
					from.Name(), observerFile, callee.Name(), file)
			}
			return false
		}
		return true
	})
}

// checkRoot walks everything reachable from one registered callback:
// protected callees are reported (and not descended into), boundary
// callees are skipped, everything else with a known declaration is
// traversed — nested function literals included, since a closure built
// on the async path runs on the async path.
func checkRoot(pass *analysis.Pass, g *callgraph.Graph, root *callgraph.Node, label string, reported map[token.Pos]bool) {
	g.Walk(root, func(from *callgraph.Node, site *ast.CallExpr, callee *types.Func) bool {
		if boundary[callee.Name()] {
			return false
		}
		if file := declFile(pass, g, callee); file != "" && protectedFiles[file] {
			if !reported[site.Pos()] {
				reported[site.Pos()] = true
				pass.Reportf(site.Pos(),
					"%s is reachable from an async entry point (%s) and calls %s, declared in %s — a synchronous Receive/Send/Resend module; enqueue a tcp_action on to_do instead",
					from.Name(), label, callee.Name(), file)
			}
			return false
		}
		return true
	})
}

// declFile returns the base name of the file declaring fn, when fn is
// declared in the package under analysis.
func declFile(pass *analysis.Pass, g *callgraph.Graph, fn *types.Func) string {
	node, ok := g.Funcs[fn]
	if !ok || node.Pkg.Types != pass.Pkg {
		return ""
	}
	return filepath.Base(pass.Fset.Position(node.Decl.Pos()).Filename)
}
