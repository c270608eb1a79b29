// Package atomiccounter guards the concurrency split the metrics
// registry is built on: stats.Counter, stats.Gauge and the one histogram
// type, telemetry.Hist, are the *atomic* world — they may be read by foxstat snapshots from
// outside the scheduler while a simulation is live — so every touch must
// go through their methods (Inc, Add, Set, Observe, Load, ...). Reading
// or writing their internal fields directly, copying one by value, or
// overwriting one with a fresh literal all tear the atomics and
// invalidate the race-freedom argument `go test -race` proves.
package atomiccounter

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the atomiccounter pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomiccounter",
	Doc:  "the atomic metric types (stats.Counter, stats.Gauge, telemetry.Hist) may only be touched through their methods; no field access, copies, or overwrites",
	Run:  run,
}

// counterTypes identifies the guarded types by package name and type
// name.
var counterTypes = map[string]map[string]bool{
	"stats":     {"Counter": true, "Gauge": true},
	"telemetry": {"Hist": true},
}

// counterNamed returns the named counter type of t, or nil. Pointers are
// not counters: method calls go through pointers by design.
func counterNamed(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !counterTypes[obj.Pkg().Name()][obj.Name()] {
		return nil
	}
	return named
}

// qualified renders a guarded type as "pkg.Type" for diagnostics.
func qualified(named *types.Named) string {
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// receiverType returns the named type of fd's receiver, or nil.
func receiverType(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	recv := receiverType(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Direct access to an internal field of a counter type is
			// allowed only inside that type's own methods.
			tv, ok := pass.TypesInfo.Types[n.X]
			if !ok {
				return true
			}
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named := counterNamed(t)
			if named == nil {
				return true
			}
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
				if recv == nil || recv.Obj() != named.Obj() {
					pass.Reportf(n.Sel.Pos(),
						"field %s of %s accessed outside its methods; use the atomic methods instead",
						n.Sel.Name, qualified(named))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if named := exprCounter(pass, lhs); named != nil {
					pass.Reportf(lhs.Pos(),
						"assignment overwrites a %s; counters are never reset or replaced, only moved through their atomic methods",
						qualified(named))
				}
			}
			for i, rhs := range n.Rhs {
				// x = y copies y; skip blank assignments (nothing is
				// materialized) and fresh literals (covered by the
				// overwrite report on the left-hand side).
				if len(n.Lhs) == len(n.Rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				if _, ok := rhs.(*ast.CompositeLit); ok {
					continue
				}
				if named := exprCounter(pass, rhs); named != nil {
					pass.Reportf(rhs.Pos(),
						"%s copied by value, tearing its atomics; take a pointer or use its methods",
						qualified(named))
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if named := exprCounter(pass, arg); named != nil {
					pass.Reportf(arg.Pos(),
						"%s passed by value, tearing its atomics; pass a pointer",
						qualified(named))
				}
			}
		}
		return true
	})
}

// exprCounter returns the counter type of e when e is a value expression
// of counter type (not a pointer, not a conversion target).
func exprCounter(pass *analysis.Pass, e ast.Expr) *types.Named {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return counterNamed(tv.Type)
}
