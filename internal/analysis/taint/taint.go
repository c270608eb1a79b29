// Package taint tracks attacker-controlled wire data from unmarshalled
// segments to dangerous sinks.
//
// Every field read from an unmarshalled segment is a value the peer
// chose. Before such a value is used as a slice index, an allocation
// size, a loop bound, or a memory-accounting charge, it must pass
// through validation — otherwise a crafted segment turns into an
// out-of-range panic, an unbounded allocation, a spin, or a poisoned
// resource ledger. This pass enforces that discipline statically.
//
// Sources are structural: any function whose name starts with
// "unmarshal" and whose first result is a pointer to a struct — or any
// method so named on a pointer to a struct, which it fills in place so
// the caller can reuse one — marks that struct as a wire type; reading
// any field off a wire-typed value taints the result. Taint propagates
// through assignments, arithmetic, conversions, and ordinary calls (a
// helper fed tainted data returns tainted data). len and cap are clean:
// the measured length of a buffer you already hold is a bound, not a
// claim.
//
// Sanitization is how findings are fixed, never suppressed:
//
//   - A branch comparing a tainted value against a clean bound (one
//     tainted side, one clean side) sanitizes the tainted side on both
//     edges — the `if n > limit { n = limit }` clamp and the
//     `if off >= len(data) { return }` guard both count, because the
//     comparison proves the code looked at the value. For a direct
//     field read the proof is remembered per (variable, field) pair; it
//     is invalidated when the variable or field is reassigned. A
//     comparison that IS a loop condition does not sanitize — there it
//     is the loop-bound sink itself.
//   - A function declared with a `//foxvet:sanitizes` directive is a
//     validation point: its result is clean, and calling it (including
//     inside a branch condition) sanitizes its tainted arguments — the
//     sequence-space predicates (seqGT and friends) are the canonical
//     case.
//
// The bodies of unmarshal functions and declared sanitizers are exempt
// from sink checks: they are the validation layer itself.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the taint pass.
var Analyzer = &analysis.Analyzer{
	Name: "taint",
	Doc:  "wire-derived values must be validated before use as slice index, allocation size, loop bound, or memory-accounting charge",
	Run:  run,
}

// sanitizeDirective marks a function as a validation point for wire
// data.
const sanitizeDirective = "//foxvet:sanitizes"

// world is the module-wide view the pass builds once: wire types,
// unmarshal functions, and declared sanitizers.
type world struct {
	wire       map[*types.Named]bool
	unmarshals map[*types.Func]bool
	sanitizers map[*types.Func]bool
}

func buildWorld(pkgs []*analysis.Package) *world {
	w := &world{
		wire:       map[*types.Named]bool{},
		unmarshals: map[*types.Func]bool{},
		sanitizers: map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if strings.HasPrefix(c.Text, sanitizeDirective) {
							w.sanitizers[fn] = true
						}
					}
				}
				if !strings.HasPrefix(strings.ToLower(fn.Name()), "unmarshal") {
					continue
				}
				// What it decodes into: its first result, or failing that
				// its receiver.
				sig := fn.Type().(*types.Signature)
				var named *types.Named
				if res := sig.Results(); res.Len() > 0 {
					named = structPointee(res.At(0).Type())
				}
				if named == nil && sig.Recv() != nil {
					named = structPointee(sig.Recv().Type())
				}
				if named == nil {
					continue
				}
				w.unmarshals[fn] = true
				w.wire[named] = true
			}
		}
	}
	return w
}

// structPointee returns T when t is a pointer to a named struct type T.
func structPointee(t types.Type) *types.Named {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

func run(pass *analysis.Pass) (any, error) {
	wv := pass.Shared.Memo("taint.world", func() any {
		return buildWorld(pass.Shared.Packages)
	})
	w := wv.(*world)
	if len(w.wire) == 0 {
		return nil, nil
	}
	pkg := pass.Shared.PackageOf(pass.Pkg)
	if pkg == nil {
		return nil, nil
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fd.Body == nil {
				return false
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			// The validation layer itself is exempt from sink checks.
			if fn != nil && (w.unmarshals[fn] || w.sanitizers[fn]) {
				return false
			}
			ta := &taintAnalysis{w: w, pass: pass, pkg: pkg, reported: map[token.Pos]bool{}}
			ta.analyze(fd.Body)
			return true
		})
	}
	return nil, nil
}

// fieldKey names one direct wire-field read, x.f, by its base variable
// and field. Proofs of validation are remembered per key.
type fieldKey struct {
	base  *types.Var
	field *types.Var
}

// facts is the lattice. vars holds the tainted locals (join: union —
// tainted on any path is tainted). clean holds the wire-field reads
// proved validated (join: intersection — a proof must hold on every
// path).
type facts struct {
	vars  map[*types.Var]bool
	clean map[fieldKey]bool
}

func (f facts) copy() facts {
	out := facts{vars: make(map[*types.Var]bool, len(f.vars)), clean: make(map[fieldKey]bool, len(f.clean))}
	for k := range f.vars {
		out.vars[k] = true
	}
	for k := range f.clean {
		out.clean[k] = true
	}
	return out
}

func joinFacts(a, b facts) facts {
	out := facts{vars: make(map[*types.Var]bool, len(a.vars)+len(b.vars)), clean: map[fieldKey]bool{}}
	for k := range a.vars {
		out.vars[k] = true
	}
	for k := range b.vars {
		out.vars[k] = true
	}
	for k := range a.clean {
		if b.clean[k] {
			out.clean[k] = true
		}
	}
	return out
}

func equalFacts(a, b facts) bool {
	if len(a.vars) != len(b.vars) || len(a.clean) != len(b.clean) {
		return false
	}
	for k := range a.vars {
		if !b.vars[k] {
			return false
		}
	}
	for k := range a.clean {
		if !b.clean[k] {
			return false
		}
	}
	return true
}

type taintAnalysis struct {
	w    *world
	pass *analysis.Pass
	pkg  *analysis.Package
	// forConds are the source ranges of for-loop conditions: a leaf
	// branch condition inside one is the loop-bound sink, not a
	// sanitizing comparison.
	forConds  [][2]token.Pos
	reported  map[token.Pos]bool
	reporting bool
}

func (ta *taintAnalysis) analyze(body *ast.BlockStmt) {
	if !ta.mentionsWire(body) {
		return
	}
	ta.forConds = nil
	ast.Inspect(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond != nil {
			ta.forConds = append(ta.forConds, [2]token.Pos{f.Cond.Pos(), f.Cond.End()})
		}
		return true
	})
	g := cfg.New(body)
	res := dataflow.Forward(g, dataflow.Problem[facts]{
		Entry:    facts{vars: map[*types.Var]bool{}, clean: map[fieldKey]bool{}},
		Join:     joinFacts,
		Equal:    equalFacts,
		Transfer: ta.transfer,
		Branch:   ta.branch,
	})
	// Report against the fixpoint, as sessiontype does: never retract.
	ta.reporting = true
	for _, b := range g.Blocks {
		in, ok := res.Reached(b)
		if !ok {
			continue
		}
		out := ta.transfer(b, in)
		if t, ok := b.Term.(*cfg.If); ok {
			ta.branch(t.Cond, out)
		}
	}
}

// mentionsWire cheaply decides whether the body can carry wire data: it
// must mention a wire-typed value or call an unmarshal function.
func (ta *taintAnalysis) mentionsWire(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := ta.pkg.Info.Uses[id]
		if obj == nil {
			obj = ta.pkg.Info.Defs[id]
		}
		switch o := obj.(type) {
		case *types.Func:
			if ta.w.unmarshals[o] {
				found = true
			}
		case *types.Var:
			if ta.isWireType(o.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (ta *taintAnalysis) isWireType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && ta.w.wire[named]
}

// isWireField reports whether sel reads a field off a wire-typed value
// — the taint source.
func (ta *taintAnalysis) isWireField(sel *ast.SelectorExpr) bool {
	s, ok := ta.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	return ta.isWireType(s.Recv())
}

// wireFieldKey returns the (base, field) key for a simple wire-field
// read x.f. Nested reads (a.b.f) have no key and can only be sanitized
// by binding to a local first.
func (ta *taintAnalysis) wireFieldKey(sel *ast.SelectorExpr) (fieldKey, bool) {
	if !ta.isWireField(sel) {
		return fieldKey{}, false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return fieldKey{}, false
	}
	base, ok := ta.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return fieldKey{}, false
	}
	field, ok := ta.pkg.Info.Selections[sel].Obj().(*types.Var)
	if !ok {
		return fieldKey{}, false
	}
	return fieldKey{base: base, field: field}, true
}

// isLenCap reports whether call is the builtin len or cap: the measured
// size of a value already in hand is a bound, not a claim.
func (ta *taintAnalysis) isLenCap(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := ta.pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return id.Name == "len" || id.Name == "cap"
}

// tainted reports whether evaluating e can yield unvalidated wire data:
// an unproven wire-field read, a tainted variable, or any expression
// (arithmetic, conversion, ordinary call) fed by one. Calls to declared
// sanitizers and to len/cap are clean, as are nested function literals
// (their bodies are separate frames).
func (ta *taintAnalysis) tainted(e ast.Expr, fm facts) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if ta.isLenCap(x) {
				return false
			}
			if fn := callgraph.Callee(ta.pkg.Info, x); fn != nil && ta.w.sanitizers[fn] {
				return false
			}
		case *ast.SelectorExpr:
			if ta.isWireField(x) {
				if key, ok := ta.wireFieldKey(x); !ok || !fm.clean[key] {
					found = true
				}
				return false
			}
		case *ast.Ident:
			if v, ok := ta.pkg.Info.Uses[x].(*types.Var); ok && fm.vars[v] {
				found = true
			}
		}
		return !found
	})
	return found
}

// cleanse records that e has been validated: tainted variables in e
// drop out of the taint set and simple wire-field reads in e gain a
// proof.
func (ta *taintAnalysis) cleanse(e ast.Expr, fm facts) {
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if key, ok := ta.wireFieldKey(x); ok {
				fm.clean[key] = true
				return false
			}
		case *ast.Ident:
			if v, ok := ta.pkg.Info.Uses[x].(*types.Var); ok {
				delete(fm.vars, v)
			}
		}
		return true
	})
}

func (ta *taintAnalysis) transfer(b *cfg.Block, in facts) facts {
	fm := in.copy()
	for _, s := range b.Nodes {
		ta.stmt(s, fm)
	}
	return fm
}

func (ta *taintAnalysis) stmt(s ast.Stmt, fm facts) {
	// A RangeStmt head node carries the whole statement; only the ranged
	// expression evaluates here. Ranging over tainted wire data yields
	// tainted values (the index is bounded by the range itself).
	if r, ok := s.(*ast.RangeStmt); ok {
		ta.sinkScan(r.X, fm)
		if r.Value != nil {
			if v := ta.lhsVar(r.Value); v != nil {
				ta.bind(v, ta.tainted(r.X, fm), fm)
			}
		}
		if r.Key != nil {
			if v := ta.lhsVar(r.Key); v != nil {
				ta.bind(v, false, fm)
			}
		}
		return
	}
	ta.sinkScan(s, fm)
	switch s := s.(type) {
	case *ast.AssignStmt:
		ta.assign(s, fm)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, ok := ta.pkg.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if i < len(vs.Values) {
						ta.bind(v, ta.tainted(vs.Values[i], fm), fm)
					}
				}
			}
		}
	}
}

func (ta *taintAnalysis) assign(s *ast.AssignStmt, fm facts) {
	// Pairwise when shapes match; with a multi-value RHS every LHS
	// carries the RHS's taint.
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			ta.bindExpr(s.Lhs[i], ta.tainted(s.Rhs[i], fm), fm)
		}
		return
	}
	t := false
	for _, r := range s.Rhs {
		if ta.tainted(r, fm) {
			t = true
		}
	}
	for _, l := range s.Lhs {
		ta.bindExpr(l, t, fm)
	}
}

func (ta *taintAnalysis) bindExpr(lhs ast.Expr, tainted bool, fm facts) {
	// Writing through a wire field (f.x = ...) invalidates its proof.
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if key, ok := ta.wireFieldKey(sel); ok {
			delete(fm.clean, key)
		}
		return
	}
	if v := ta.lhsVar(lhs); v != nil {
		ta.bind(v, tainted, fm)
	}
}

// bind strongly updates v's taint and invalidates any field proofs
// rooted at v (the variable now holds a different value).
func (ta *taintAnalysis) bind(v *types.Var, tainted bool, fm facts) {
	if tainted {
		fm.vars[v] = true
	} else {
		delete(fm.vars, v)
	}
	for key := range fm.clean {
		if key.base == v {
			delete(fm.clean, key)
		}
	}
}

func (ta *taintAnalysis) lhsVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := ta.pkg.Info.Defs[id]
	if obj == nil {
		obj = ta.pkg.Info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// sinkScan walks one statement (excluding nested literals) for the
// sinks: slice/array indexing, slice bounds, allocation sizes, and
// memory-accounting charges.
func (ta *taintAnalysis) sinkScan(n ast.Node, fm facts) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IndexExpr:
			if ta.indexable(x.X) && ta.tainted(x.Index, fm) {
				ta.reportOnce(x.Index.Pos(), "unvalidated wire data used as a slice index — bound it with a comparison or a //foxvet:sanitizes function first")
			}
		case *ast.SliceExpr:
			for _, idx := range []ast.Expr{x.Low, x.High, x.Max} {
				if idx != nil && ta.tainted(idx, fm) {
					ta.reportOnce(idx.Pos(), "unvalidated wire data used as a slice bound — bound it with a comparison or a //foxvet:sanitizes function first")
					break
				}
			}
		case *ast.CallExpr:
			ta.sinkCall(x, fm)
		}
		return true
	})
}

func (ta *taintAnalysis) sinkCall(call *ast.CallExpr, fm facts) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := ta.pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "make" {
			for _, arg := range call.Args[1:] {
				if ta.tainted(arg, fm) {
					ta.reportOnce(arg.Pos(), "unvalidated wire data used as an allocation size — a crafted segment chooses how much memory to commit")
					return
				}
			}
			return
		}
	}
	callee := callgraph.Callee(ta.pkg.Info, call)
	if callee == nil || callee.Name() != "memCharge" {
		return
	}
	for _, arg := range call.Args {
		if ta.tainted(arg, fm) {
			ta.reportOnce(arg.Pos(), "unvalidated wire data flows into a memory-accounting charge — a crafted segment poisons the resource ledger")
			return
		}
	}
}

// indexable limits the index sink to sequences, where an out-of-range
// value panics; map lookups with wire keys are safe.
func (ta *taintAnalysis) indexable(x ast.Expr) bool {
	t := ta.pkg.Info.TypeOf(x)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// branch handles one leaf condition: inside a for-loop condition it is
// the loop-bound sink; elsewhere a comparison with exactly one tainted
// side sanitizes that side, and a sanitizer call sanitizes its
// arguments.
func (ta *taintAnalysis) branch(cond ast.Expr, out facts) (facts, facts) {
	fm := out.copy()
	ta.sinkScan(cond, fm)
	if ta.inForCond(cond.Pos()) {
		if ta.tainted(cond, fm) {
			ta.reportOnce(cond.Pos(), "unvalidated wire data used as a loop bound — a crafted segment chooses the iteration count")
		}
		return fm, fm
	}
	ta.sanitize(cond, fm)
	return fm, fm
}

func (ta *taintAnalysis) sanitize(cond ast.Expr, fm facts) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			ta.sanitize(e.X, fm)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			lt, rt := ta.tainted(e.X, fm), ta.tainted(e.Y, fm)
			if lt != rt {
				side := e.X
				if rt {
					side = e.Y
				}
				ta.cleanse(side, fm)
			}
		}
	case *ast.CallExpr:
		if fn := callgraph.Callee(ta.pkg.Info, e); fn != nil && ta.w.sanitizers[fn] {
			for _, arg := range e.Args {
				ta.cleanse(arg, fm)
			}
		}
	}
}

func (ta *taintAnalysis) inForCond(pos token.Pos) bool {
	for _, r := range ta.forConds {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

func (ta *taintAnalysis) reportOnce(pos token.Pos, msg string) {
	if !ta.reporting || ta.reported[pos] {
		return
	}
	ta.reported[pos] = true
	ta.pass.Reportf(pos, "%s", msg)
}
