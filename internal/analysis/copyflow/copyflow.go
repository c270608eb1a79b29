// Package copyflow machine-checks the paper's one-copy invariant on
// the zero-copy datapath: each user byte is copied at most once per
// direction — by queueTake on send (user buffer → packet) and by
// Conn.Read on receive (segment → user buffer). Everything between
// those two copies aliases: sg.data aliases the packet buffer, the
// receive queue stores the same slices, and the layers below move the
// *basis.Packet by reference.
//
// The pass classifies payload-carrying values interprocedurally
// through the datapath (tcp → ip → ethernet → wire): a *basis.Packet
// is payload by type; a []byte is payload when it comes from
// Packet.Bytes, from a []byte struct field named "data" (the
// codebase's convention for segment/fragment/frame payloads), from
// slicing another payload, or — via a module-wide fixpoint — from a
// parameter or result that a call path proves payload. It then flags
// every copy event whose source is payload:
//
//   - the copy builtin and growing append on byte slices,
//   - string(payload) conversions,
//   - basis.NewPacket(h, t, payload) — the allocator's one copy in —
//     and Packet.Clone at their call sites.
//
// Three escapes define the proved copy map rather than noise:
// the sanctioned copies (queueTake, Conn.Read) are data, not findings;
// the basis package is mechanism (its bodies implement the copies its
// callers are charged for); and a deliberate boundary — the simulated
// kernel crossing in wire, IP fragmentation and reassembly — carries a
// //foxvet:boundary-copy <reason> directive on the line or the
// function's doc comment. A directive without a reason is itself an
// error: boundaries are reviewed, not waved through.
//
// The receive path has one more way to outlive a packet than copying it:
// an upcall borrows its packet, and a layer that holds received bytes past
// the upcall without copying takes the frame over with Packet.Keep. A
// Keep is not a copy and never a finding, but it is where ownership moves,
// so the map records every call site as a hand-over.
//
// Extract renders the proved copy map per layer as Graphviz — every
// sanctioned, boundary, hand-over and violating site with counts — for
// the -copyflow-dot flag.
package copyflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the copyflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "copyflow",
	Doc:  "prove the one-copy datapath invariant: payload bytes are copied once per direction (queueTake on send, Conn.Read on receive); any other payload copy must carry a reviewed //foxvet:boundary-copy reason",
	Run:  run,
}

// directive marks a reviewed, deliberate boundary copy.
const directive = "//foxvet:boundary-copy"

// eventScope names the packages whose bodies are checked. The basis
// package is classification scope only: its bodies are the mechanism
// the call sites are charged for.
var eventScope = map[string]bool{
	"tcp":      true,
	"ip":       true,
	"ethernet": true,
	"wire":     true,
}

// kind classifies a copy site in the proved map.
type kind int

const (
	kindViolation kind = iota
	kindSanctioned
	kindBoundary
	kindHandOver
)

func (k kind) String() string {
	switch k {
	case kindSanctioned:
		return "sanctioned"
	case kindBoundary:
		return "boundary"
	case kindHandOver:
		return "hand-over"
	}
	return "violation"
}

// event is one copy site, or one Keep.
type event struct {
	pos  token.Pos
	what string // copy | append | string | NewPacket | Clone | Keep
}

// keep is the event that is not a copy: Packet.Keep, the receive path's
// ownership hand-over.
const keep = "Keep"

func run(pass *analysis.Pass) (any, error) {
	if !eventScope[lastElem(pass.Pkg.Path())] {
		return nil, nil
	}
	w := worldOf(pass)
	for _, f := range pass.Files {
		if testFile(pass.Fset, f) {
			continue
		}
		lines := directiveLines(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sanctioned := isSanctioned(fn)
			fnReason, fnMarked := docDirective(fd)
			if fnMarked && fnReason == "" {
				pass.Reportf(fd.Pos(), "%s needs a reason: say why this function's copy is a deliberate boundary", directive)
			}
			for _, ev := range w.events(pass.TypesInfo, fd, sanctioned) {
				if sanctioned || ev.what == keep {
					continue
				}
				if fnMarked {
					continue
				}
				line := pass.Fset.Position(ev.pos).Line
				if reason, ok := lines[line]; ok {
					if reason == "" {
						pass.Reportf(ev.pos, "%s needs a reason: say why this %s is a deliberate boundary", directive, ev.what)
					}
					continue
				}
				pass.Reportf(ev.pos, "unsanctioned payload copy (%s): the datapath copies each user byte once per direction — queueTake on send, Conn.Read on receive; mark a deliberate boundary %s <reason>", ev.what, directive)
			}
		}
	}
	return nil, nil
}

// isSanctioned reports whether fn is one of the two data copies the
// invariant is stated around.
func isSanctioned(fn *types.Func) bool {
	if fnPkg(fn) != "tcp" {
		return false
	}
	switch fn.Name() {
	case "queueTake":
		return true
	case "Read":
		return recvNamed(fn) == "Conn"
	}
	return false
}

// world carries the module-wide payload classification.
type world struct {
	paramPayload  map[*types.Var]bool
	resultPayload map[*types.Func]bool
}

func worldOf(pass *analysis.Pass) *world {
	return pass.Shared.Memo("copyflow.world", func() any {
		g := pass.Shared.Memo("callgraph", func() any {
			return callgraph.Build(pass.Shared.Packages)
		}).(*callgraph.Graph)
		return buildWorld(g)
	}).(*world)
}

// buildWorld runs the interprocedural payload fixpoint: a parameter is
// payload when any call site passes payload into it, a single []byte
// result is payload when any return statement yields payload.
func buildWorld(g *callgraph.Graph) *world {
	w := &world{
		paramPayload:  map[*types.Var]bool{},
		resultPayload: map[*types.Func]bool{},
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if n.Decl == nil || n.Fn == nil {
				continue // literal bodies are walked with their parent
			}
			if !classifyScope(n.Pkg.Path) {
				continue
			}
			info := n.Pkg.Info
			locals := w.locals(n.Decl, info)
			for _, e := range nodeEdges(n) {
				if e.Callee == nil {
					continue
				}
				sig, ok := e.Callee.Type().(*types.Signature)
				if !ok {
					continue
				}
				for i, arg := range e.Site.Args {
					if i >= sig.Params().Len() {
						break
					}
					p := sig.Params().At(i)
					if !isByteSlice(p.Type()) || w.paramPayload[p] {
						continue
					}
					if w.exprPayload(arg, locals, info) {
						w.paramPayload[p] = true
						changed = true
					}
				}
			}
			if fn := n.Fn; !w.resultPayload[fn] && singleByteResult(fn) {
				if w.returnsPayload(n.Decl.Body, locals, info) {
					w.resultPayload[fn] = true
					changed = true
				}
			}
		}
	}
	return w
}

// classifyScope includes basis: its types and accessors seed the
// classification even though its bodies are exempt from events.
func classifyScope(path string) bool {
	return eventScope[lastElem(path)] || lastElem(path) == "basis"
}

// nodeEdges flattens call sites including nested literals.
func nodeEdges(n *callgraph.Node) []callgraph.Edge {
	var out []callgraph.Edge
	var walk func(n *callgraph.Node)
	walk = func(n *callgraph.Node) {
		out = append(out, n.Edges...)
		out = append(out, n.ValueEdges...)
		for _, lit := range n.Lits {
			walk(lit)
		}
	}
	walk(n)
	return out
}

// locals computes the function's payload-carrying []byte locals,
// flow-insensitively to a small fixpoint.
func (w *world) locals(fd *ast.FuncDecl, info *types.Info) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for round := 0; round < 4; round++ {
		changed := false
		ast.Inspect(fd.Body, func(x ast.Node) bool {
			as, ok := x.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, l := range as.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.ObjectOf(id).(*types.Var)
				if !ok || set[v] || !isByteSlice(v.Type()) {
					continue
				}
				if w.exprPayload(as.Rhs[i], set, info) {
					set[v] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return set
}

// exprPayload reports whether e evaluates to payload bytes.
func (w *world) exprPayload(e ast.Expr, locals map[*types.Var]bool, info *types.Info) bool {
	e = ast.Unparen(e)
	if isPacketType(info.TypeOf(e)) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := info.ObjectOf(x).(*types.Var)
		return ok && (locals[v] || w.paramPayload[v])
	case *ast.SliceExpr:
		return w.exprPayload(x.X, locals, info)
	case *ast.SelectorExpr:
		v, ok := info.ObjectOf(x.Sel).(*types.Var)
		return ok && v.IsField() && x.Sel.Name == "data" && isByteSlice(v.Type())
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return w.exprPayload(x.Args[0], locals, info)
		}
		fn := calleeOf(info, x)
		if fn == nil {
			return false
		}
		if fn.Name() == "Bytes" && recvNamed(fn) == "Packet" {
			return true
		}
		return w.resultPayload[fn]
	}
	return false
}

func (w *world) returnsPayload(body *ast.BlockStmt, locals map[*types.Var]bool, info *types.Info) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := x.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		if w.exprPayload(ret.Results[0], locals, info) {
			found = true
		}
		return !found
	})
	return found
}

// events finds the copy sites in fd's body (nested literals included —
// they run on the same path). In a sanctioned function every byte-slice
// copy counts as the sanctioned site; elsewhere the source must be
// payload.
func (w *world) events(info *types.Info, fd *ast.FuncDecl, sanctioned bool) []event {
	locals := w.locals(fd, info)
	var out []event
	payload := func(e ast.Expr) bool { return w.exprPayload(e, locals, info) }
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			if len(call.Args) == 1 && isString(info.TypeOf(call)) &&
				isByteSlice(info.TypeOf(call.Args[0])) && payload(call.Args[0]) {
				out = append(out, event{pos: call.Pos(), what: "string"})
			}
			return true
		}
		if name, ok := builtinOf(info, call); ok {
			switch name {
			case "copy":
				// A copy into a window over a fixed-size array is
				// header-field extraction (addresses, ports): bounded
				// by the field width, not the payload. Not an event.
				if len(call.Args) == 2 && isByteSlice(info.TypeOf(call.Args[0])) &&
					!arrayWindow(info, call.Args[0]) &&
					(sanctioned || payload(call.Args[1])) {
					out = append(out, event{pos: call.Pos(), what: "copy"})
				}
			case "append":
				if len(call.Args) > 0 && isByteSlice(info.TypeOf(call.Args[0])) {
					for _, arg := range call.Args {
						if sanctioned && len(call.Args) > 1 {
							out = append(out, event{pos: call.Pos(), what: "append"})
							break
						}
						if payload(arg) {
							out = append(out, event{pos: call.Pos(), what: "append"})
							break
						}
					}
				}
			}
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil {
			return true
		}
		switch {
		case fn.Name() == "NewPacket" && fnPkg(fn) == "basis" && len(call.Args) == 3:
			if payload(call.Args[2]) {
				out = append(out, event{pos: call.Pos(), what: "NewPacket"})
			}
		case fn.Name() == "Clone" && recvNamed(fn) == "Packet":
			out = append(out, event{pos: call.Pos(), what: "Clone"})
		case fn.Name() == keep && recvNamed(fn) == "Packet":
			out = append(out, event{pos: call.Pos(), what: keep})
		}
		return true
	})
	return out
}

// directiveLines maps source lines carrying //foxvet:boundary-copy to
// the reason text after the directive.
func directiveLines(fset *token.FileSet, f *ast.File) map[int]string {
	m := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
				m[fset.Position(c.Pos()).Line] = strings.TrimSpace(strings.TrimPrefix(c.Text, directive))
			}
		}
	}
	return m
}

// docDirective reports a function-wide boundary directive in the doc
// comment, with its reason.
func docDirective(fd *ast.FuncDecl) (reason string, ok bool) {
	if fd.Doc == nil {
		return "", false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return strings.TrimSpace(strings.TrimPrefix(c.Text, directive)), true
		}
	}
	return "", false
}

// --- type helpers ---

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

// arrayWindow reports whether e is a slice expression over a value of
// array type, the fixed-width header-field idiom (copy(addr[:], h[12:16])).
func arrayWindow(info *types.Info, e ast.Expr) bool {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(se.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok = t.Underlying().(*types.Array)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isPacketType recognizes basis.Packet (by name: the testdata packages
// model it under the same shape).
func isPacketType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Packet" && named.Obj().Pkg() != nil &&
		lastElem(named.Obj().Pkg().Path()) == "basis"
}

func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

func singleByteResult(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() == 1 && isByteSlice(sig.Results().At(0).Type())
}

func fnPkg(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return lastElem(fn.Pkg().Path())
}

func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

func builtinOf(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	if !ok {
		return "", false
	}
	return b.Name(), true
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func testFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// --- dot export ---

// site is one classified copy site in the proved map.
type site struct {
	pkg    string
	fn     string
	what   string
	kind   kind
	reason string
}

// Extract builds the proved copy map over the loaded packages and
// renders it as deterministic Graphviz: one cluster per layer in
// datapath order, one node per function holding copy sites, annotated
// with site counts and classification.
func Extract(pkgs []*analysis.Package) (string, error) {
	g := callgraph.Build(pkgs)
	w := buildWorld(g)
	var sites []site
	for _, pkg := range pkgs {
		if !eventScope[lastElem(pkg.Path)] {
			continue
		}
		for _, f := range pkg.Files {
			if testFile(pkg.Fset, f) {
				continue
			}
			lines := directiveLines(pkg.Fset, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				sanctioned := isSanctioned(fn)
				fnReason, fnMarked := docDirective(fd)
				for _, ev := range w.events(pkg.Info, fd, sanctioned) {
					s := site{pkg: lastElem(pkg.Path), fn: funcLabel(fd, fn), what: ev.what}
					switch {
					case ev.what == keep:
						s.kind = kindHandOver
					case sanctioned:
						s.kind = kindSanctioned
					case fnMarked:
						s.kind, s.reason = kindBoundary, fnReason
					default:
						if reason, ok := lines[pkg.Fset.Position(ev.pos).Line]; ok {
							s.kind, s.reason = kindBoundary, reason
						}
					}
					sites = append(sites, s)
				}
			}
		}
	}
	return renderDot(sites), nil
}

func funcLabel(fd *ast.FuncDecl, fn *types.Func) string {
	if fd.Recv != nil {
		return recvNamed(fn) + "." + fn.Name()
	}
	return fn.Name()
}

// layerOrder is the datapath top-down.
var layerOrder = []string{"tcp", "ip", "ethernet", "wire"}

func renderDot(sites []site) string {
	type nodeKey struct {
		pkg, fn string
	}
	type nodeInfo struct {
		counts  map[string]int // what → count
		kind    kind
		reasons map[string]bool
	}
	nodes := map[nodeKey]*nodeInfo{}
	for _, s := range sites {
		k := nodeKey{s.pkg, s.fn}
		n := nodes[k]
		if n == nil {
			n = &nodeInfo{counts: map[string]int{}, kind: s.kind, reasons: map[string]bool{}}
			nodes[k] = n
		}
		n.counts[s.what]++
		if s.kind == kindViolation {
			n.kind = kindViolation // any violation taints the node
		}
		if s.reason != "" {
			n.reasons[s.reason] = true
		}
	}

	var b strings.Builder
	b.WriteString("digraph copyflow {\n")
	b.WriteString("\trankdir=TB;\n")
	b.WriteString("\tlabel=\"proved copy map: each user byte copied at most once per direction\\nsolid = sanctioned data copy, dashed = reviewed boundary, bold = Keep hand-over (no copy), red = violation\";\n")
	b.WriteString("\tnode [shape=box, fontname=\"monospace\"];\n")
	for _, layer := range layerOrder {
		fmt.Fprintf(&b, "\tsubgraph cluster_%s {\n\t\tlabel=\"%s\";\n", layer, layer)
		var keys []nodeKey
		for k := range nodes {
			if k.pkg == layer {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].fn < keys[j].fn })
		if len(keys) == 0 {
			fmt.Fprintf(&b, "\t\t\"%s (zero-copy)\" [style=dotted];\n", layer)
		}
		for _, k := range keys {
			n := nodes[k]
			var whats []string
			for w := range n.counts {
				whats = append(whats, w)
			}
			sort.Strings(whats)
			var parts []string
			for _, w := range whats {
				parts = append(parts, fmt.Sprintf("%s ×%d", w, n.counts[w]))
			}
			label := fmt.Sprintf("%s\\n%s · %s", k.fn, strings.Join(parts, ", "), n.kind)
			attrs := ""
			switch n.kind {
			case kindBoundary:
				attrs = ", style=dashed"
			case kindHandOver:
				attrs = ", style=bold"
			case kindViolation:
				attrs = ", color=red"
			}
			fmt.Fprintf(&b, "\t\t\"%s.%s\" [label=\"%s\"%s];\n", k.pkg, k.fn, label, attrs)
		}
		b.WriteString("\t}\n")
	}
	// The layer spine keeps the clusters in datapath order.
	b.WriteString("\t\"user send\" -> \"user receive\" [style=invis];\n")
	b.WriteString("}\n")
	return b.String()
}
