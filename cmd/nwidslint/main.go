// Command nwidslint runs the repo's static-analysis suite (internal/lint
// + internal/lint/rules) over the module: determinism, float-safety and
// panic-safety invariants the compiler cannot check.
//
// Usage:
//
//	go run ./cmd/nwidslint [flags] [patterns...]
//
// Patterns default to ./... and follow go-tool conventions (./internal/lp,
// ./cmd/..., ...). Exit status is 0 when no new findings remain, 1 when
// findings are reported, 2 on usage or load/type-check errors.
//
// Findings are suppressed either in-source with
//
//	//lint:ignore <rule[,rule]> <reason>
//
// on the offending line or the line above it, or by the checked-in
// baseline of accepted pre-existing findings. The module root's
// lint.baseline is applied automatically when it exists (disable with
// -baseline none, or point -baseline at another file); regenerate it
// with:
//
//	go run ./cmd/nwidslint -write-baseline lint.baseline ./...
//
// and drop entries nothing fires anymore (stale entries fail the run so
// CI catches a rotten committed baseline) with:
//
//	go run ./cmd/nwidslint -prune-baseline ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nwids/internal/lint"
	"nwids/internal/lint/rules"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json output schema. Accepted (baselined) findings
// are included with their flag set so tooling can see the full picture;
// only new findings affect the exit status. Version 3 drops version 2's
// per-finding "fix" object.
type jsonReport struct {
	Version  int           `json:"version"`
	Findings []jsonFinding `json:"findings"`
	Count    int           `json:"count"` // new (non-baselined) findings
}

// jsonReportVersion bumps when the schema changes shape.
const jsonReportVersion = 3

type jsonFinding struct {
	lint.Finding
	Baselined bool `json:"baselined,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nwidslint", flag.ContinueOnError)
	var (
		jsonOut       = fs.Bool("json", false, "emit findings as JSON on stdout")
		baselinePath  = fs.String("baseline", "auto", "baseline `file` of accepted findings; only new findings fail the run (auto = the module root's lint.baseline if present, none = disabled)")
		writeBaseline = fs.String("write-baseline", "", "write all current findings to `file` as the new baseline and exit 0")
		pruneBaseline = fs.Bool("prune-baseline", false, "rewrite the baseline dropping entries no current finding matches and exit; status 1 if any were stale")
		listRules     = fs.Bool("rules", false, "list the analyzers and exit")
		ruleFilter    = fs.String("run", "", "comma-separated `rules` to run (default: all)")
		dir           = fs.String("C", ".", "module `directory` to analyze")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listRules {
		for _, a := range rules.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := rules.All()
	if *ruleFilter != "" {
		if analyzers = rules.ByName(*ruleFilter); analyzers == nil {
			fmt.Fprintf(stderr, "nwidslint: unknown rule in -run=%s\n", *ruleFilter)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "nwidslint: %v\n", err)
		return 2
	}
	loader, err := lint.NewModuleLoader(root, false)
	if err != nil {
		fmt.Fprintf(stderr, "nwidslint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "nwidslint: %v\n", err)
		return 2
	}
	findings := lint.Run(pkgs, analyzers)

	if *writeBaseline != "" {
		if err := lint.NewBaseline(findings).WriteFile(*writeBaseline); err != nil {
			fmt.Fprintf(stderr, "nwidslint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "nwidslint: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return 0
	}

	var accepted []lint.Finding
	bp := *baselinePath
	if bp == "auto" {
		bp = filepath.Join(root, "lint.baseline")
		if _, err := os.Stat(bp); err != nil {
			bp = "none"
		}
	}
	if *pruneBaseline {
		if bp == "none" || bp == "" {
			fmt.Fprintf(stderr, "nwidslint: -prune-baseline: no baseline file to prune\n")
			return 2
		}
		base, err := lint.ReadBaseline(bp)
		if err != nil {
			fmt.Fprintf(stderr, "nwidslint: %v\n", err)
			return 2
		}
		stale := base.Prune(findings)
		if len(stale) == 0 {
			fmt.Fprintf(stderr, "nwidslint: baseline %s is current (%d entr(ies))\n", bp, base.Len())
			return 0
		}
		if err := base.WriteFile(bp); err != nil {
			fmt.Fprintf(stderr, "nwidslint: %v\n", err)
			return 2
		}
		for _, k := range stale {
			fmt.Fprintf(stdout, "stale: %s\n", k)
		}
		// Non-zero so a CI step running -prune-baseline fails when the
		// committed baseline carries entries nothing fires anymore.
		fmt.Fprintf(stderr, "nwidslint: pruned %d stale entr(ies) from %s; commit the rewrite\n", len(stale), bp)
		return 1
	}
	if bp != "none" && bp != "" {
		base, err := lint.ReadBaseline(bp)
		if err != nil {
			fmt.Fprintf(stderr, "nwidslint: %v\n", err)
			return 2
		}
		findings, accepted = base.Filter(findings)
	}

	if *jsonOut {
		rep := jsonReport{Version: jsonReportVersion, Count: len(findings)}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{Finding: f})
		}
		for _, f := range accepted {
			rep.Findings = append(rep.Findings, jsonFinding{Finding: f, Baselined: true})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "nwidslint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "nwidslint: %d finding(s)", len(findings))
			if len(accepted) > 0 {
				fmt.Fprintf(stderr, " (+%d baselined)", len(accepted))
			}
			fmt.Fprintln(stderr)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
