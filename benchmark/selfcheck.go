package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads: the
// metric names, and the bound by which each end-to-end metric may worsen.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// loadManifest reads BENCHMARK.json from the working directory (the
// repository root, where run.sh and the driver start the benchmark) or its
// parent (where `go test` starts it).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

// selfcheck is the repeatability test: two complete end-to-end sets of the
// same code, back to back. A pair that differs by more than the metric's
// bound is unresolved — the benchmark could not tell that change from
// noise — and makes the exit code non-zero.
func selfcheck(o options, selected []workload, out io.Writer) int {
	m, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck needs BENCHMARK.json:", err)
		return 2
	}
	var sets [2][]*report
	for i := range sets {
		for _, w := range selected {
			r := runWorkload(w, o, nil)
			r.print(out, fmt.Sprintf("selfcheck set %d", i+1))
			sets[i] = append(sets[i], r)
		}
	}
	code := 0
	fmt.Fprintf(out, "\n%-10s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for wi, w := range selected {
		a, b := sets[0][wi], sets[1][wi]
		code = max(code, exitCode(a), exitCode(b))
		for _, e := range m.EndToEnd {
			x, y := a.get(e.Name), b.get(e.Name)
			diff := math.Abs(y-x) / math.Abs(x)
			status := ""
			if !(diff <= e.Bound) { // NaN (a missing metric) is unresolved too
				status = "  unresolved"
				code = 1
			}
			fmt.Fprintf(out, "%-10s %-22s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				w.Name, e.Name, x, y, 100*diff, 100*e.Bound, status)
		}
	}
	return code
}
