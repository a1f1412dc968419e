package rules

import (
	"go/ast"

	"nwids/internal/lint"
)

// ColdSolve enforces the warm-start convention of the sweep engine (PR 6):
// a worker closure passed to Options.forEach or sweepMap must not call the
// one-shot solve entry points (core.SolveReplication and friends, lp.Solve,
// lp.SolveWithPresolve) directly. Inside a sweep there is almost always a
// basis to chain — use a solver handle (core.NewReplicationSolver etc.) or
// the chainChunk/chainReplication helpers; when a point genuinely cannot be
// chained (the model shape differs per job), say so by calling the
// solve*Cold wrapper, or annotate the call with //lint:ignore coldsolve.
var ColdSolve = &lint.Analyzer{
	Name: "coldsolve",
	Doc:  "one-shot solve call inside a sweep worker closure ignores the warm-start handle; chain bases or mark the call deliberately cold",
	Run:  runColdSolve,
}

// coldSolveEntry identifies one flagged one-shot solve entry point by its
// package path segment and function name. A deterministic slice, not a map:
// findings must report in source order regardless of entry order.
type coldSolveEntry struct {
	pkgSegment string
	name       string
	handle     string // the warm alternative named in the diagnostic
}

var coldSolveEntries = []coldSolveEntry{
	{"internal/core", "SolveReplication", "core.NewReplicationSolver"},
	{"internal/core", "SolveAggregation", "core.NewAggregationSolver"},
	{"internal/core", "SolveNIPS", "core.NewNIPSSolver"},
	{"internal/core", "SolveSplit", "core.NewSplitSolver"},
	{"internal/lp", "Solve", "Options.WarmStart"},
	{"internal/lp", "SolveWithPresolve", "Options.WarmStart"},
}

func runColdSolve(pass *lint.Pass) {
	if !pathHasSegment(pass.Path, "internal/experiments") {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isSweepEntry(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					checkColdSolves(pass, lit)
				}
			}
			return true
		})
	}
}

// isSweepEntry reports whether call invokes the sweep engine: the forEach
// method or the sweepMap function of an internal/experiments package.
func isSweepEntry(pass *lint.Pass, call *ast.CallExpr) bool {
	f := calleeFunc(pass.Info, call)
	if f == nil || !pathHasSegment(funcPkgPath(f), "internal/experiments") {
		return false
	}
	switch f.Name() {
	case "forEach":
		return !isPkgLevel(f)
	case "sweepMap":
		return isPkgLevel(f)
	}
	return false
}

// checkColdSolves reports direct one-shot solve calls inside one worker
// closure. Calls routed through the solve*Cold wrappers resolve to a
// different callee and are not flagged — that naming is the convention for
// deliberately cold points.
func checkColdSolves(pass *lint.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || !isPkgLevel(f) {
			return true
		}
		for _, e := range coldSolveEntries {
			if f.Name() == e.name && pathHasSegment(funcPkgPath(f), e.pkgSegment) {
				pass.Reportf(call.Pos(), "one-shot %s inside a sweep worker closure solves cold at every point: chain bases through %s, or mark the point deliberately cold via a solve*Cold wrapper", f.Name(), e.handle)
				return true
			}
		}
		return true
	})
}
