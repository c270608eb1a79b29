// Package noblock machine-checks the other half of the paper's
// concurrency discipline: quasisync constrains WHAT async code may call
// (enqueue only); noblock constrains HOW any coroutine-scheduled code
// may wait. The paper's stack runs on ML threads multiplexed by its own
// scheduler — a thread that blocks in the operating system instead of
// the scheduler stalls every connection, not just its own.
//
// The Go port's analogue of those ML threads is internal/sim: Fork'd
// coroutine bodies, timer callbacks, wire-delivery handlers, and
// connection upcalls all run on sim's cooperative scheduler. Code
// reachable from any of those roots must therefore not block outside
// the scheduler's control:
//
//   - time.Sleep parks the OS thread, invisible to sim's clock;
//   - raw channel operations (send, receive, range, select) and
//     package sync primitives wait without yielding to the scheduler
//     (sync/atomic is fine: it never blocks);
//   - package os / package net I/O can block indefinitely;
//   - a raw go statement escapes the scheduler entirely.
//
// The sanctioned handoff set is package sim itself (Sleep, Yield, Cond,
// Exclude, ...) — the traversal treats sim as a boundary and does not
// look inside it. The walk is module-wide over the shared callgraph:
// roots found in the package under analysis are followed wherever they
// lead, and diagnostics are deduplicated driver-wide so a site reachable
// from several packages' roots is reported once.
package noblock

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the noblock pass.
var Analyzer = &analysis.Analyzer{
	Name: "noblock",
	Doc:  "code reachable from coroutine-scheduled roots (sim.Fork bodies, timer callbacks, wire handlers, upcalls) must not block outside the scheduler: no time.Sleep, raw channel ops, sync locks, os/net I/O, or go statements",
	Run:  run,
}

// registrar reports whether fn hands its function-typed arguments to
// the cooperative scheduler, with a diagnostic label. Matching is by
// name and declaring-package name (not import path) so the testdata
// miniatures exercise the same shapes the real module has.
func registrar(fn *types.Func) (label string, ok bool) {
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	switch {
	case pkgName == "sim" && (fn.Name() == "Fork" || fn.Name() == "ForkPrio" || fn.Name() == "Run"):
		return "coroutine body (sim." + fn.Name() + ")", true
	case pkgName == "timers" && fn.Name() == "Start":
		return "timer callback (timers.Start)", true
	case pkgName == "sim" && fn.Name() == "Bind":
		return "timer callback (sim.Timer.Bind)", true
	case fn.Name() == "Attach":
		return "wire delivery handler (Attach)", true
	case fn.Name() == "SetHandler":
		return "connection upcall (SetHandler)", true
	}
	return "", false
}

// blockingCall classifies a callee that blocks outside the scheduler,
// returning a description or "".
func blockingCall(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep parks the OS thread, invisible to the sim clock"
	case path == "sync":
		return "sync." + fn.Name() + " waits without yielding to the scheduler"
	case path == "os" || path == "net":
		return path + "." + fn.Name() + " is operating-system I/O that can block indefinitely"
	}
	return ""
}

type checker struct {
	pass     *analysis.Pass
	graph    *callgraph.Graph
	reported map[token.Pos]bool // driver-wide, via Shared.Memo
	seen     map[*callgraph.Node]bool
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "sim" {
		// The scheduler is the sanctioned handoff set; its own blocking
		// internals are the point.
		return nil, nil
	}
	g := pass.Shared.Memo("callgraph", func() any {
		return callgraph.Build(pass.Shared.Packages)
	}).(*callgraph.Graph)
	reported := pass.Shared.Memo("noblock.reported", func() any {
		return map[token.Pos]bool{}
	}).(map[token.Pos]bool)

	c := &checker{pass: pass, graph: g, reported: reported, seen: map[*callgraph.Node]bool{}}
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
			if label, ok := registrar(fn); ok {
				c.rootArgs(call, label)
			}
			return true
		})
	}
	return nil, nil
}

// rootArgs treats every function-typed argument of a registrar call as
// a scheduled root — including function-typed fields of a composite
// literal argument, which is how connection upcalls are registered
// (SetHandler(Handler{Data: func...})).
func (c *checker) rootArgs(call *ast.CallExpr, label string) {
	for _, arg := range call.Args {
		c.rootExpr(arg, label)
		if lit, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					c.rootExpr(kv.Value, label)
				}
			}
		}
	}
}

func (c *checker) rootExpr(arg ast.Expr, label string) {
	tv, ok := c.pass.TypesInfo.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil {
		return
	}
	if _, isFunc := tv.Type.Underlying().(*types.Signature); !isFunc {
		return
	}
	if n := c.graph.RootFor(c.pass.TypesInfo, arg); n != nil {
		c.walk(n, label)
	}
}

// walk traverses one root's reachable bodies over the module-wide
// graph, stopping at the sim boundary.
func (c *checker) walk(n *callgraph.Node, label string) {
	if n == nil || c.seen[n] {
		return
	}
	c.seen[n] = true
	if n.Pkg.Types.Name() == "sim" {
		return
	}

	var body *ast.BlockStmt
	if n.Decl != nil {
		body = n.Decl.Body
	} else {
		body = n.Lit.Body
	}
	c.scanStmts(n, body, label)

	for _, e := range n.Edges {
		if why := blockingCall(e.Callee); why != "" {
			c.reportf(e.Site.Pos(),
				"%s is reachable from a %s and calls a blocking primitive: %s; use the sim scheduler's primitives instead",
				n.Name(), label, why)
			continue
		}
		if lbl, ok := registrar(e.Callee); ok {
			// Registration on the path roots its own callbacks; the
			// registrar call itself does not block.
			c.rootArgsOf(n.Pkg.Info, e.Site, lbl)
			continue
		}
		c.walk(c.graph.Funcs[e.Callee], label)
	}
	for _, lit := range n.Lits {
		c.walk(lit, label)
	}
}

// rootArgsOf roots a registrar call found during the walk. The call may
// be in another package than the one under analysis, so resolution goes
// through the owning package's type info.
func (c *checker) rootArgsOf(info *types.Info, call *ast.CallExpr, label string) {
	for _, arg := range call.Args {
		if n := c.graph.RootFor(info, arg); n != nil {
			c.walk(n, label)
			continue
		}
		if lit, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if n := c.graph.RootFor(info, kv.Value); n != nil {
						c.walk(n, label)
					}
				}
			}
		}
	}
}

// scanStmts flags statement-level blocking constructs in one body,
// excluding nested literals (they are walked as child nodes).
func (c *checker) scanStmts(n *callgraph.Node, body *ast.BlockStmt, label string) {
	if body == nil {
		return
	}
	info := n.Pkg.Info
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			c.stmt(n, x.Pos(), "a raw channel send", label)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				c.stmt(n, x.Pos(), "a raw channel receive", label)
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					c.stmt(n, x.Pos(), "a range over a channel", label)
				}
			}
		case *ast.SelectStmt:
			c.stmt(n, x.Pos(), "a select statement", label)
		case *ast.GoStmt:
			c.stmt(n, x.Pos(), "a raw go statement (escapes the scheduler)", label)
		}
		return true
	})
}

func (c *checker) stmt(n *callgraph.Node, pos token.Pos, what, label string) {
	c.reportf(pos,
		"%s is reachable from a %s and uses %s, which waits outside the scheduler; use sim.Cond or the to_do queue instead",
		n.Name(), label, what)
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}
