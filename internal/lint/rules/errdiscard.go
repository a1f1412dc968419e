package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"nwids/internal/lint"
)

// ErrDiscard flags statement-level calls whose returned error is silently
// dropped — beyond what go vet checks (vet has no general errcheck). The
// classic victims are cmd/* flag and IO paths: w.Flush(), f.Close() on a
// just-written file, flag.Set.
//
// Deliberate exemptions, mirroring errcheck's defaults:
//
//   - defer'd calls (defer f.Close() on a read-only file is idiomatic);
//   - the fmt.Print/Fprint family (best-effort CLI output);
//   - methods on strings.Builder and bytes.Buffer, whose error results
//     are documented to always be nil;
//   - bufio.Writer's Write* methods (not Flush): the writer's error is
//     sticky and the mandatory Flush at the end of the stream returns
//     it, so per-write checks add nothing.
//
// An intentional discard is written `_ = call()` — visible in review —
// or annotated with //lint:ignore errdiscard <reason>.
var ErrDiscard = &lint.Analyzer{
	Name: "errdiscard",
	Doc:  "call result containing an error is discarded; handle it or assign to _ deliberately",
	Run:  runErrDiscard,
}

func runErrDiscard(pass *lint.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(pass.Info, call) {
				return true
			}
			f := calleeFunc(pass.Info, call)
			if f != nil && exemptErrDiscard(f) {
				return true
			}
			name := "call"
			if f != nil {
				name = f.Name()
			}
			pass.Reportf(call.Pos(), "result of %s contains an error that is discarded; handle it or assign to _ with a //lint:ignore reason", name)
			return true
		})
	}
}

// returnsError reports whether the call's result is an error or a tuple
// whose last element is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

// exemptErrDiscard implements the built-in exemption list.
func exemptErrDiscard(f *types.Func) bool {
	if funcPkgPath(f) == "fmt" && isPkgLevel(f) &&
		(strings.HasPrefix(f.Name(), "Print") || strings.HasPrefix(f.Name(), "Fprint")) {
		return true
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if isNamedType(rt, "strings", "Builder") || isNamedType(rt, "bytes", "Buffer") {
			return true
		}
		if isNamedType(rt, "bufio", "Writer") && strings.HasPrefix(f.Name(), "Write") {
			return true // sticky error; the required Flush returns it
		}
	}
	return false
}
