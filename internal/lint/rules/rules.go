// Package rules holds the repo-specific analyzers run by nwidslint. Each
// analyzer encodes one invariant of the CoNEXT'12 reproduction that the
// compiler cannot check:
//
//	nondeterminism  no wall-clock or global-RNG calls, no unsorted map
//	                iteration feeding output, in the deterministic core
//	floatcmp        tolerance-based float comparisons in numeric kernels
//	panicsafe       *OK metrics variants outside internal/metrics
//	errdiscard      no silently dropped errors (beyond go vet)
//	coldsolve       no one-shot solve calls inside sweep worker closures
//	                that ignore an available warm-start handle
package rules

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"nwids/internal/lint"
)

// All returns every analyzer in the suite, in report order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		Nondeterminism,
		FloatCmp,
		PanicSafe,
		ErrDiscard,
		ColdSolve,
	}
}

// ByName resolves a comma-separated rule list; unknown names yield nil.
func ByName(names string) []*lint.Analyzer {
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	var out []*lint.Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		return nil
	}
	return out
}

// pathHasSegment reports whether pkgPath contains seg as a slash-separated
// run of path segments (e.g. "internal/lp" matches "nwids/internal/lp" and
// any fixture module path, but not "internal/lpx").
func pathHasSegment(pkgPath, seg string) bool {
	return strings.Contains("/"+pkgPath+"/", "/"+seg+"/")
}

// pathHasAnySegment reports whether pkgPath matches any of segs.
func pathHasAnySegment(pkgPath string, segs []string) bool {
	for _, s := range segs {
		if pathHasSegment(pkgPath, s) {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil for builtins, conversions
// and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath returns the import path of the function's package, or "".
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isPkgLevel reports whether f is a package-level function (no receiver).
func isPkgLevel(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isFloat reports whether t's underlying type is a floating-point basic.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether e is a numeric constant equal to zero (the
// exact-zero sparsity/sentinel idiom the float kernels rely on).
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// derefNamed unwraps pointers and returns t's named type, or nil.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (after pointer deref) is pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := derefNamed(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// ioWriter is a structurally-built io.Writer interface so analyzers can
// ask types.Implements without importing the io package into the universe
// under analysis.
var ioWriter = func() *types.Interface {
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte])))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

// implementsWriter reports whether t (or *t) implements io.Writer.
func implementsWriter(t types.Type) bool {
	if types.Implements(t, ioWriter) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), ioWriter)
	}
	return false
}

// eachFuncBody calls fn once per function in the file — every FuncDecl and
// every FuncLit — with the name of the nearest enclosing declared function
// (the FuncDecl's name for literals nested inside one, "" at file scope).
func eachFuncBody(file *ast.File, fn func(declName string, body *ast.BlockStmt)) {
	var walk func(n ast.Node, declName string)
	walk = func(n ast.Node, declName string) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncDecl:
				if m.Body != nil {
					fn(m.Name.Name, m.Body)
					walk(m.Body, m.Name.Name)
				}
				return false
			case *ast.FuncLit:
				fn(declName, m.Body)
				walk(m.Body, declName)
				return false
			}
			return true
		})
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if fd.Body != nil {
				fn(fd.Name.Name, fd.Body)
				walk(fd.Body, fd.Name.Name)
			}
		}
	}
}

// inspectShallow walks n but does not descend into nested function
// literals, so per-function analyses do not double-count.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (e.g. o for o.Rand.Intn), or nil when the chain roots in a call or
// other non-identifier expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
