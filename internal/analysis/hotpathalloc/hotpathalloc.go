// Package hotpathalloc machine-checks the paper's §4 single-copy
// discipline on the data path. The paper reports that the fast path
// wins exactly because the common case does no avoidable work: one copy
// on send, zero on receive, and no garbage-collector pressure per
// segment. In Go the equivalent regression is a heap allocation on the
// per-segment path — a composite literal built in a loop, a value boxed
// into an interface, an append that grows, a closure that captures the
// packet buffer.
//
// Functions opt in with a `//foxvet:hotpath` directive in their doc
// comment; the analyzer then flags, inside the marked body:
//
//   - R1: composite literals, make, and new inside a loop;
//   - R2: interface conversions that box a non-pointer value (call
//     arguments, assignments, and returns), and calls with a variadic
//     interface parameter, which allocate the argument slice;
//   - R3: append to a slice the function did not preallocate with an
//     explicit capacity (fields and parameters are trusted — the
//     check tracks locals, where the make-with-cap is visible);
//   - R4: function literals capturing packet buffers ([]byte, Packet,
//     segment) — the capture forces the buffer's context to the heap.
//
// Two escapes keep the pass precise rather than noisy. Arguments of the
// executor boundary (enqueue, perform) are exempt: handing an action to
// the to_do queue is the sanctioned per-segment allocation, already
// policed by quasisync/singledoor. And tracing regions are exempt: a
// CFG + dataflow pass marks blocks reachable only through the true edge
// of a Trace.On()-style guard (or an equivalent nil check on a tracer),
// where diagnostic-only allocation is deliberate. An UNGUARDED trace
// call on the hot path is precisely what this analyzer exists to catch.
package hotpathalloc

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions marked //foxvet:hotpath must not allocate per segment: no literals/make/new in loops, no interface boxing, no growing appends, no buffer-capturing closures (trace-guarded regions and executor boundary arguments exempt)",
	Run:  run,
}

// directive is the opt-in marker in a function's doc comment.
const directive = "//foxvet:hotpath"

// boundary names the executor doors whose arguments are sanctioned
// allocations (the action handed to the to_do queue).
var boundary = map[string]bool{
	"enqueue": true,
	"perform": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !marked(fd) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil, nil
}

func marked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

type checker struct {
	pass     *analysis.Pass
	info     *types.Info
	fd       *ast.FuncDecl
	sig      *types.Signature
	guarded  map[ast.Stmt]bool
	prealloc map[*types.Var]bool
	sizes    types.Sizes
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	c := &checker{
		pass:     pass,
		info:     pass.TypesInfo,
		fd:       fd,
		sig:      fn.Type().(*types.Signature),
		guarded:  guardedStmts(pass.TypesInfo, fd.Body),
		prealloc: map[*types.Var]bool{},
		sizes:    types.SizesFor("gc", "amd64"),
	}
	c.walk(fd.Body)
}

// --- trace-guard regions -------------------------------------------------

// guardedStmts solves a boolean dataflow problem over the function's
// CFG: a statement is guarded when every path reaching its block passed
// through the true edge of a tracing guard.
func guardedStmts(info *types.Info, body *ast.BlockStmt) map[ast.Stmt]bool {
	g := cfg.New(body)
	res := dataflow.Forward(g, dataflow.Problem[bool]{
		Entry:    false,
		Join:     func(a, b bool) bool { return a && b },
		Equal:    func(a, b bool) bool { return a == b },
		Transfer: func(b *cfg.Block, in bool) bool { return in },
		Branch: func(cond ast.Expr, out bool) (bool, bool) {
			thenG, elseG := out, out
			if isOnGuard(cond) {
				thenG = true
			} else if eq, ok := tracerNilCmp(info, cond); ok {
				if eq {
					elseG = true // tracer == nil: the else edge has it
				} else {
					thenG = true // tracer != nil
				}
			}
			return thenG, elseG
		},
	})
	guarded := map[ast.Stmt]bool{}
	for _, b := range g.Blocks {
		if fact, ok := res.Reached(b); ok && fact {
			for _, s := range b.Nodes {
				guarded[s] = true
			}
		}
	}
	return guarded
}

// isOnGuard matches the tracing-enabled probe: a niladic method call
// named On (basis.Tracer.On and the testdata miniatures).
func isOnGuard(cond ast.Expr) bool {
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "On"
}

// tracerNilCmp matches `x == nil` / `x != nil` where x is a pointer to
// a Tracer. Returns eq=true for ==.
func tracerNilCmp(info *types.Info, cond ast.Expr) (eq, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return false, false
	}
	x, y := be.X, be.Y
	if !isNil(info, y) {
		x, y = y, x
	}
	if !isNil(info, y) || !isTracerPtr(info, x) {
		return false, false
	}
	return be.Op == token.EQL, true
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func isTracerPtr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	ptr, ok := tv.Type.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Tracer"
}

// --- the walk ------------------------------------------------------------

// walk visits the marked body, tracking the enclosing-statement stack
// (to find the current block's guard fact) and loop depth. Boundary
// call arguments and nested function literals are pruned.
func (c *checker) walk(body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)

		switch x := n.(type) {
		case *ast.FuncLit:
			c.checkCapture(x, stack)
			stack = stack[:len(stack)-1]
			return false

		case *ast.CallExpr:
			if c.isBoundaryCall(x) {
				stack = stack[:len(stack)-1]
				return false
			}
			c.checkCall(x, stack)

		case *ast.CompositeLit:
			if c.inLoop(stack) && !c.isGuarded(stack) {
				c.pass.Reportf(x.Pos(),
					"composite literal allocates inside a loop on the hot path; hoist it or reuse a scratch value")
			}

		case *ast.ReturnStmt:
			c.checkReturn(x, stack)

		case *ast.AssignStmt:
			c.checkAssign(x, stack)
		}
		return true
	})
}

// isGuarded finds the nearest enclosing statement with a solved guard
// fact.
func (c *checker) isGuarded(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if s, ok := stack[i].(ast.Stmt); ok {
			if g, known := c.guarded[s]; known {
				return g
			}
		}
	}
	return false
}

// inLoop reports whether the current node sits under a for/range
// statement of the marked body.
func (c *checker) inLoop(stack []ast.Node) bool {
	for _, n := range stack[:len(stack)-1] {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

func (c *checker) isBoundaryCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if fn, ok := c.info.Uses[sel.Sel].(*types.Func); ok {
		return boundary[fn.Name()]
	}
	return false
}

// checkCall applies R1 (make/new in loops), R2 (boxing arguments), and
// the variadic-slice rule, plus R3 for bare append expressions.
func (c *checker) checkCall(call *ast.CallExpr, stack []ast.Node) {
	guarded := c.isGuarded(stack)

	// Builtins and conversions first: their Fun has no *types.Signature.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch c.info.Uses[id].(type) {
		case *types.Builtin:
			switch id.Name {
			case "make", "new":
				if c.inLoop(stack) && !guarded {
					c.pass.Reportf(call.Pos(),
						"%s allocates inside a loop on the hot path; hoist it or reuse a scratch value", id.Name)
				}
			case "append":
				c.checkAppend(call, guarded)
			}
			return
		case *types.TypeName:
			return // conversion; any boxing is charged where the result is used
		}
	}
	if _, isType := ast.Unparen(call.Fun).(*ast.ArrayType); isType {
		return // []byte(s)-style conversion
	}

	tv, ok := c.info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsType() {
		return // conversion through a named/qualified type
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || guarded {
		return
	}

	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
		elem := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		if types.IsInterface(elem) && call.Ellipsis == token.NoPos && len(call.Args) > fixed {
			for _, arg := range call.Args[fixed:] {
				if tvArg, ok := c.info.Types[arg]; ok && tvArg.Value == nil {
					c.pass.Reportf(call.Pos(),
						"variadic call allocates its argument slice on the hot path; guard it behind Trace.On() or drop it")
					break
				}
			}
		}
	}
	for i := 0; i < fixed && i < len(call.Args); i++ {
		c.checkBox(call.Args[i], sig.Params().At(i).Type())
	}
}

// checkAppend flags growth of a slice the function did not visibly
// preallocate. Only local variables are tracked: for those, the
// make-with-capacity (or its absence) is in this body.
func (c *checker) checkAppend(call *ast.CallExpr, guarded bool) {
	if guarded || len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := c.info.Uses[id].(*types.Var)
	if !ok || v.Pos() < c.fd.Pos() || v.Pos() > c.fd.End() {
		return // fields, globals, and cross-function slices are out of scope
	}
	if !c.prealloc[v] {
		c.pass.Reportf(call.Pos(),
			"append may grow %s on the hot path; preallocate it with make and an explicit capacity", id.Name)
	}
}

func (c *checker) checkReturn(ret *ast.ReturnStmt, stack []ast.Node) {
	if c.isGuarded(stack) {
		return
	}
	results := c.sig.Results()
	if results.Len() != len(ret.Results) {
		return
	}
	for i, e := range ret.Results {
		c.checkBox(e, results.At(i).Type())
	}
}

func (c *checker) checkAssign(as *ast.AssignStmt, stack []ast.Node) {
	// Track preallocated locals: x := make([]T, n, cap).
	if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if mk, ok := as.Rhs[0].(*ast.CallExpr); ok && len(mk.Args) == 3 {
				if fun, ok := mk.Fun.(*ast.Ident); ok && fun.Name == "make" {
					if v, ok := c.info.Defs[id].(*types.Var); ok {
						c.prealloc[v] = true
					} else if v, ok := c.info.Uses[id].(*types.Var); ok {
						c.prealloc[v] = true
					}
				}
			}
		}
	}
	if c.isGuarded(stack) {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		tv, ok := c.info.Types[lhs]
		if !ok || tv.Type == nil {
			continue
		}
		c.checkBox(as.Rhs[i], tv.Type)
	}
}

// checkBox reports an interface conversion that heap-allocates: a
// non-pointer-shaped, non-constant, non-zero-size concrete value
// converted to an interface type.
func (c *checker) checkBox(e ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := c.info.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	// Numeric and boolean constants are boxed statically by the
	// compiler; string-typed constants still deserve a package-level
	// sentinel — a fresh error value per failure defeats identity
	// comparison and leans on the optimizer.
	if tv.Value != nil && tv.Value.Kind() != constant.String {
		return
	}
	if types.IsInterface(tv.Type) {
		return // interface-to-interface carries the existing box
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: fits the interface word, no allocation
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return
	}
	if c.sizes != nil && c.sizes.Sizeof(tv.Type) == 0 {
		return
	}
	c.pass.Reportf(e.Pos(),
		"interface conversion boxes a %s into %s on the hot path; return a preallocated sentinel or restructure to avoid the allocation",
		tv.Type.String(), target.String())
}

// checkCapture applies R4: a literal nested in a hot function must not
// capture packet buffers — the capture forces them (and their holder)
// to escape to the heap.
func (c *checker) checkCapture(lit *ast.FuncLit, stack []ast.Node) {
	if c.isGuarded(stack) {
		return
	}
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.info.Uses[id].(*types.Var)
		if !ok || seen[v] {
			return true
		}
		// Captured: declared in the enclosing function, outside the
		// literal.
		if v.Pos() < c.fd.Pos() || v.Pos() > c.fd.End() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		seen[v] = true
		if isPacketBuffer(v.Type()) {
			c.pass.Reportf(lit.Pos(),
				"closure on the hot path captures packet buffer %q, forcing it to escape to the heap", v.Name())
		}
		return true
	})
}

// isPacketBuffer matches the types that hold wire data: byte slices and
// (pointers to) Packet/segment values.
func isPacketBuffer(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if basic, ok := sl.Elem().Underlying().(*types.Basic); ok && basic.Kind() == types.Byte {
			return true
		}
	}
	if named, ok := t.(*types.Named); ok {
		name := named.Obj().Name()
		return name == "Packet" || name == "segment"
	}
	return false
}
