package rules

import (
	"go/ast"
	"go/types"

	"nwids/internal/lint"
)

// hotpathDirective is the annotation that opts a function into the
// zero-allocation contract: //nwids:hotpath on the line above the
// declaration (conventionally the last line of its doc comment).
const hotpathDirective = "//nwids:hotpath"

// Hotalloc enforces the per-packet path's zero-allocation contract.
// Functions annotated //nwids:hotpath (Shim.DecideFlowInto and its two
// wrappers, Engine.ProcessPacket, Matcher.ScanStream*) run once per packet
// or per flow; a single allocation there multiplies into millions per
// second and shows up directly in the pps figures the bench trajectory
// tracks. Three allocation shapes are flagged:
//
//   - make: allocates on every call. Hoist the buffer into a struct
//     field, a caller-provided slice, or a pool.
//   - append whose result lands in a different variable than (a reslice
//     of) its first argument: the copy-grow idiom, which reallocates
//     instead of amortizing into a reused buffer. `out = append(out, x)`
//     and `m = append(buf[:0], x)` pass; `grown = append(old, x)` does
//     not.
//   - a function literal capturing enclosing variables: the closure (and
//     any variable captured by reference) escapes to the heap at the
//     call boundary. Capture-free literals compile to static funcs and
//     pass.
//
// testing.AllocsPerRun catches regressions dynamically but only on the
// inputs a test happens to exercise; this rule catches the allocation
// site itself, on every path, at review time.
var Hotalloc = &lint.Analyzer{
	Name: "hotalloc",
	Doc:  "allocation (make, copy-grow append, capturing closure) in a //nwids:hotpath function",
	Run:  runHotalloc,
}

func runHotalloc(pass *lint.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
}

// isHotpath reports whether the declaration carries the //nwids:hotpath
// directive. Directive comments are excluded from CommentGroup.Text, so
// the raw comment list is scanned.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective {
			return true
		}
	}
	return false
}

// checkHotBody walks one annotated function and reports every allocation
// shape. Nested function literals are traversed too: code inside them
// still runs per packet when the closure is invoked on the hot path.
func checkHotBody(pass *lint.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(pass.Info, n, "make") {
				pass.Reportf(n.Pos(), "make in //nwids:hotpath function %s: allocates every call; hoist the buffer to a struct field, caller-provided slice or pool", name)
			}
		case *ast.AssignStmt:
			checkHotAppend(pass, name, n)
		case *ast.FuncLit:
			if v := capturedVar(pass.Info, fd, n); v != "" {
				pass.Reportf(n.Pos(), "closure capturing %s in //nwids:hotpath function %s: the closure and its by-reference captures escape to the heap; pass state explicitly or hoist the func value", v, name)
			}
		}
		return true
	})
}

// checkHotAppend flags copy-grow appends: an append whose result is
// assigned to a destination that is neither (a reslice of) its first
// argument nor fed from an explicit buffer reslice.
func checkHotAppend(pass *lint.Pass, name string, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinCall(pass.Info, call, "append") || len(call.Args) == 0 {
			continue
		}
		src := ast.Unparen(call.Args[0])
		if _, ok := src.(*ast.SliceExpr); ok {
			// append(buf[:0], ...) — explicit reuse of buf's capacity,
			// regardless of where the result lands.
			continue
		}
		if types.ExprString(ast.Unparen(as.Lhs[i])) == types.ExprString(src) {
			// x = append(x, ...) — amortized growth into the same buffer.
			continue
		}
		pass.Reportf(call.Pos(), "copy-grow append in //nwids:hotpath function %s: result does not feed back into %s; append in place or reuse a buffer with buf[:0]", name, types.ExprString(src))
	}
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, builtin string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == builtin
}

// capturedVar returns the name of a variable the literal captures from
// the enclosing declaration (receiver, parameters, or body locals), or ""
// when the literal is capture-free. Any object whose declaration position
// lies inside the enclosing FuncDecl but outside the literal is a
// capture.
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= fd.Pos() && pos < fd.End() && !(pos >= lit.Pos() && pos < lit.End()) {
			captured = v.Name()
		}
		return true
	})
	return captured
}
