// Package lint is a stdlib-only static-analysis framework for this
// repository. It loads and type-checks packages with go/parser + go/types
// (no external dependencies), runs a set of repo-specific analyzers over
// them, and reports findings with file:line:col positions.
//
// The framework enforces invariants no compiler checks: byte-identical
// sweep output for any -workers count, tolerance-based float comparisons
// in the numeric kernels, and non-panicking metrics calls on possibly
// empty data. The analyzers themselves live in internal/lint/rules; the
// cmd/nwidslint driver wires everything together.
//
// Findings can be silenced in two ways:
//
//   - a //lint:ignore <rule[,rule]> <reason> comment on the offending
//     line or the line directly above it (see ignore.go), or
//   - an entry in a checked-in baseline file of accepted pre-existing
//     findings (see baseline.go), so a CI gate fails only on new
//     violations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// An Analyzer is one named rule. Run inspects a single type-checked
// package via the Pass and reports findings through pass.Reportf.
type Analyzer struct {
	// Name is the rule identifier used in reports, //lint:ignore
	// directives and baseline entries. Lower-case, no spaces.
	Name string
	// Doc is a one-line description shown by the driver's -rules flag.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
}

// A Pass carries one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path (e.g. nwids/internal/lp).
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	findings *[]Finding
	baseDir  string
}

// Reportf records a finding at pos. The position is rendered relative to
// the load root so reports and baselines are stable across machines.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Rule:    p.Analyzer.Name,
		File:    p.relPath(position.Filename),
		Line:    position.Line,
		Column:  position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// relPath renders filename relative to the load root when possible.
func (p *Pass) relPath(filename string) string {
	if p.baseDir != "" {
		if rel, err := filepath.Rel(p.baseDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filename
}

// A Finding is one reported rule violation.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Column, f.Message, f.Rule)
}

// Key is the position-independent identity used for baseline matching:
// line numbers drift as files are edited, so accepted findings are keyed
// on rule, file and message only.
func (f Finding) Key() string {
	return f.Rule + "\t" + f.File + "\t" + f.Message
}

// Run executes every analyzer over every package and returns the surviving
// findings, sorted by file, line, column and rule. Packages are analyzed
// in parallel (the type-checked packages are read-only and FileSet
// position lookups are safe concurrently); per-package findings land in
// index-addressed slots merged in package order, so the output is
// byte-identical to a sequential run. Findings silenced by a
// //lint:ignore directive are dropped here; malformed directives are
// themselves reported under the "lint" pseudo-rule so a typo cannot
// silently disable a rule.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	perPkg := make([][]Finding, len(pkgs))
	perDirs := make([][]directive, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			for _, a := range analyzers {
				pass := &Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Path:     pkg.Path,
					Files:    pkg.Files,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
					findings: &perPkg[i],
					baseDir:  pkg.BaseDir,
				}
				a.Run(pass)
			}
			for _, f := range pkg.Files {
				ds, bad := parseDirectives(pkg.Fset, f, pkg.BaseDir)
				perDirs[i] = append(perDirs[i], ds...)
				perPkg[i] = append(perPkg[i], bad...)
			}
		}(i, pkg)
	}
	wg.Wait()
	var findings []Finding
	var dirs []directive
	for i := range pkgs {
		findings = append(findings, perPkg[i]...)
		dirs = append(dirs, perDirs[i]...)
	}
	findings = applyIgnores(findings, dirs)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Rule < b.Rule
	})
	return findings
}
