package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSmokeEmitsEveryMetricOnce drives all five workloads end to end at
// smoke size, both passes, and holds the output against BENCHMARK.json:
// every metric it names comes out exactly once, finite, in the unit it
// declares, and nothing it does not name comes out.
func TestSmokeEmitsEveryMetricOnce(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, e := range m.EndToEnd {
		endToEnd[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, e := range m.PerLayer {
		perLayer[e.Name] = e.Unit
	}
	ws := workloads()
	if len(ws) != len(m.Workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(ws), len(m.Workloads))
	}

	o := options{seed: 3, seconds: 0.3, scale: 0.02}
	for i, w := range ws {
		if w.Name != m.Workloads[i].Name {
			t.Errorf("workload %d is %q in code, %q in BENCHMARK.json", i, w.Name, m.Workloads[i].Name)
		}
		w = w.scaled(o.scale)
		// Not in parallel: state_bytes_per_flow reads the process's heap.
		t.Run(w.Name, func(t *testing.T) { smoke(t, w, o, endToEnd, perLayer) })
	}
}

func smoke(t *testing.T, w workload, o options, endToEnd, perLayer map[string]string) {
	check := func(rep *report, want map[string]string) {
		t.Helper()
		if rep.Failed > 0 || rep.Attempted == 0 {
			t.Errorf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
		}
		seen := map[string]int{}
		for _, got := range rep.Metrics {
			seen[got.Name]++
			unit, ok := want[got.Name]
			switch {
			case !ok:
				t.Errorf("emitted %s, which BENCHMARK.json does not name", got.Name)
			case unit != got.Unit:
				t.Errorf("%s in %q, BENCHMARK.json says %q", got.Name, got.Unit, unit)
			case math.IsNaN(got.Median) || math.IsInf(got.Median, 0):
				t.Errorf("%s = %v", got.Name, got.Median)
			}
		}
		for name := range want {
			if seen[name] != 1 {
				t.Errorf("%s emitted %d times, want once", name, seen[name])
			}
		}
	}
	e2e := runWorkload(w, o, nil)
	check(e2e, endToEnd)
	for _, got := range e2e.Metrics {
		if got.Median <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", got.Name, got.Median)
		}
	}
	rec := newRecorder()
	check(runWorkload(w, o, rec), perLayer)

	// The line the driver reads.
	var line bytes.Buffer
	if err := writeResult(&line, e2e); err != nil {
		t.Fatal(err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal(line.Bytes(), &res); err != nil || len(res) != 4 {
		t.Errorf("result line %q: %v", line.String(), err)
	}
	if strings.Count(line.String(), "\n") != 1 {
		t.Error("result is not one line")
	}

	// The traced pass left a loadable trace with the layer spans in it.
	var trace bytes.Buffer
	if err := rec.writeChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"install", "model.build", "lp.solve", "controller.propose", "controller.fleet_apply", "nids.engine", "emulation.run_drift"} {
		if !strings.Contains(trace.String(), `"name":"`+name+`"`) {
			t.Errorf("trace has no %s span", name)
		}
	}
}
