package rules

import (
	"go/ast"

	"nwids/internal/lint"
)

// ClocksafeScope lists the path segments of the telemetry plane: packages
// whose instruments must be stamped through the injectable obs.Clock so
// emulation runs under a virtual clock export byte-identical timelines,
// traces and drift events. A direct time.Now/time.Since call there
// silently reintroduces wall time into artifacts the determinism gate
// diffs.
var ClocksafeScope = []string{
	"internal/obs",
	"internal/emulation",
}

// clocksafeAllowedMethods is the allowlist of sanctioned wall-clock reads,
// keyed by receiver-qualified method name. wallClock.Now IS the Clock
// abstraction's wall-time implementation — the single place the telemetry
// plane is allowed to touch the real clock.
var clocksafeAllowedMethods = map[string]bool{
	"wallClock.Now": true,
}

// Clocksafe flags direct time.Now and time.Since calls in the telemetry
// plane. Telemetry code must read time through an injected obs.Clock (the
// tracer's clock, or the clock a caller reads for Series.RecordAt) so that
// virtual-clock runs stay deterministic; storing time.Now as a function
// value (the Logger's injectable `now` field) is the approved escape hatch
// for components that deliberately stamp wall time.
var Clocksafe = &lint.Analyzer{
	Name: "clocksafe",
	Doc:  "direct wall-clock call in the telemetry plane; read time through the injected obs.Clock",
	Run:  runClocksafe,
}

func runClocksafe(pass *lint.Pass) {
	if !pathHasAnySegment(pass.Path, ClocksafeScope) {
		return
	}
	check := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || !isPkgLevel(f) || funcPkgPath(f) != "time" {
			return true
		}
		if f.Name() == "Now" || f.Name() == "Since" {
			pass.Reportf(call.Pos(), "time.%s in the telemetry plane: stamp through the injected obs.Clock so virtual-clock runs stay deterministic", f.Name())
		}
		return true
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Function literals in var initializers and the like.
				ast.Inspect(decl, check)
				continue
			}
			if fd.Body == nil || clocksafeAllowedMethods[qualFuncName(fd)] {
				continue
			}
			// Nested function literals inherit the declaration's allowance,
			// so inspect the whole body at once.
			ast.Inspect(fd.Body, check)
		}
	}
}

// qualFuncName returns a FuncDecl's receiver-qualified name: "Recv.Name"
// for methods (pointer receivers without the star), the bare name for
// package-level functions.
func qualFuncName(fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if recv := recvTypeName(fd.Recv.List[0].Type); recv != "" {
			name = recv + "." + name
		}
	}
	return name
}

// recvTypeName extracts the receiver's type name from a receiver type
// expression (T, *T, or a generic instantiation thereof).
func recvTypeName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}
