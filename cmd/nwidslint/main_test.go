package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTempModule lays down a throwaway module with one known violation
// of each of two rules, so driver behavior (exit codes, JSON schema,
// baseline flow) can be tested end to end without touching this repo.
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tmp\n\ngo 1.22\n",
		"cmd/app/main.go": `package main

import "os"

func main() {
	f, err := os.Create("out")
	if err != nil {
		return
	}
	f.Close()
}
`,
		"internal/lp/kernel.go": `package lp

func drift(a, b float64) bool { return a == b }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestDriverEndToEnd(t *testing.T) {
	dir := writeTempModule(t)
	var stdout, stderr bytes.Buffer

	// Findings present: exit 1, text report on stdout.
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "cmd/app/main.go:10:2:") || !strings.Contains(out, "[errdiscard]") {
		t.Errorf("missing errdiscard finding with position, got:\n%s", out)
	}
	if !strings.Contains(out, "internal/lp/kernel.go:3:42:") || !strings.Contains(out, "[floatcmp]") {
		t.Errorf("missing floatcmp finding with position, got:\n%s", out)
	}

	// JSON output: schema fields and count.
	stdout.Reset()
	if code := run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("json run exit = %d, want 1", code)
	}
	var rep struct {
		Version  int `json:"version"`
		Count    int `json:"count"`
		Findings []struct {
			Rule      string `json:"rule"`
			File      string `json:"file"`
			Line      int    `json:"line"`
			Column    int    `json:"column"`
			Message   string `json:"message"`
			Baselined bool   `json:"baselined"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout.String())
	}
	if rep.Version != 3 || rep.Count != 2 || len(rep.Findings) != 2 {
		t.Fatalf("JSON report = version %d count %d findings %d, want 3/2/2", rep.Version, rep.Count, len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if f.Rule == "" || f.File == "" || f.Line == 0 || f.Column == 0 || f.Message == "" {
			t.Errorf("JSON finding missing fields: %+v", f)
		}
		if f.Baselined {
			t.Errorf("finding wrongly marked baselined: %+v", f)
		}
	}

	// Write a baseline, then the default (auto) baseline makes it pass.
	basePath := filepath.Join(dir, "lint.baseline")
	stdout.Reset()
	if code := run([]string{"-C", dir, "-write-baseline", basePath, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined run exit = %d, want 0; stdout: %s", code, stdout.String())
	}

	// JSON still reports the accepted findings, flagged, with count 0.
	stdout.Reset()
	if code := run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined json run exit = %d, want 0", code)
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rep.Count != 0 || len(rep.Findings) != 2 {
		t.Fatalf("baselined JSON = count %d findings %d, want 0/2", rep.Count, len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if !f.Baselined {
			t.Errorf("accepted finding not marked baselined: %+v", f)
		}
	}

	// -baseline none disables the auto baseline again.
	stdout.Reset()
	if code := run([]string{"-C", dir, "-baseline", "none", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-baseline none exit = %d, want 1", code)
	}

	// A NEW violation fails even with the baseline in place.
	extra := filepath.Join(dir, "internal", "lp", "extra.go")
	if err := os.WriteFile(extra, []byte("package lp\n\nfunc drift2(a, b float64) bool { return a != b }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("new violation over baseline: exit = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "extra.go") {
		t.Errorf("new violation not reported, got:\n%s", stdout.String())
	}
}

// TestDriverPruneBaseline covers the stale-baseline gate: entries whose
// findings stopped firing are dropped, the run fails once so CI notices,
// and a clean baseline passes.
func TestDriverPruneBaseline(t *testing.T) {
	dir := writeTempModule(t)
	var stdout, stderr bytes.Buffer
	basePath := filepath.Join(dir, "lint.baseline")
	if code := run([]string{"-C", dir, "-write-baseline", basePath, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline exit = %d", code)
	}

	// Current baseline: nothing to prune, exit 0.
	stderr.Reset()
	if code := run([]string{"-C", dir, "-prune-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("prune of current baseline exit = %d, want 0; stderr: %s", code, stderr.String())
	}

	// Fix the floatcmp violation; its baseline entry goes stale.
	kernel := filepath.Join(dir, "internal", "lp", "kernel.go")
	if err := os.WriteFile(kernel, []byte("package lp\n\nfunc drift(a, b float64) bool { return a < b }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-prune-baseline", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("prune of stale baseline exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "stale: floatcmp\t") {
		t.Errorf("stale entry not reported:\n%s", stdout.String())
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "floatcmp") {
		t.Errorf("stale floatcmp entry survived the prune:\n%s", data)
	}
	if !strings.Contains(string(data), "errdiscard") {
		t.Errorf("live errdiscard entry was dropped:\n%s", data)
	}

	// The rewritten baseline is current again.
	if code := run([]string{"-C", dir, "-prune-baseline", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("re-prune exit = %d, want 0", code)
	}

	// No baseline at all is a usage error.
	if code := run([]string{"-C", dir, "-baseline", "none", "-prune-baseline", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("prune with -baseline none exit = %d, want 2", code)
	}
}

func TestDriverFlags(t *testing.T) {
	dir := writeTempModule(t)
	var stdout, stderr bytes.Buffer

	// -rules lists all eight analyzers.
	if code := run([]string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-rules exit = %d, want 0", code)
	}
	for _, name := range []string{"nondeterminism", "floatcmp", "panicsafe", "errdiscard", "exprloop", "coldsolve", "clocksafe", "hotalloc"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-rules output missing %s:\n%s", name, stdout.String())
		}
	}

	// -run restricts the suite: only floatcmp fires on the temp module.
	stdout.Reset()
	if code := run([]string{"-C", dir, "-run", "floatcmp", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-run floatcmp exit = %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "errdiscard") {
		t.Errorf("-run floatcmp still ran errdiscard:\n%s", stdout.String())
	}

	// Unknown rule and unknown flag are usage errors.
	if code := run([]string{"-run", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("-run nosuch exit = %d, want 2", code)
	}
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
	}
}
