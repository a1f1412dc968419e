package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestConcurrentInstruments hammers every instrument type from many
// goroutines; run with -race to check the synchronization.
//
// The histogram is exact only while it holds at most HistogramRetain
// observations, so the load arrives in two halves. After the first the count
// is still below the limit and the quantiles must be exact. The second half
// pushes it over: the quantiles then come from a reservoir whose content
// depends on how the goroutines interleaved, and are checked against a
// statistical bound instead.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 1000
	const half = perWorker / 2
	if workers*half > HistogramRetain || workers*perWorker <= HistogramRetain {
		t.Fatalf("test sizes no longer straddle HistogramRetain = %d", HistogramRetain)
	}
	// observe has every worker record the values lo..hi-1 on every instrument.
	observe := func(lo, hi int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					reg.Counter("c").Inc()
					reg.Counter("c2").Add(2)
					reg.Gauge("gmax").Max(float64(w*perWorker + i))
					reg.Histogram("h").Observe(float64(i))
					reg.Timer("t").ObserveDuration(time.Duration(i) * time.Microsecond)
				}
			}()
		}
		wg.Wait()
	}

	observe(0, half)
	hs := reg.Histogram("h").Snapshot()
	if hs.Count != workers*half || hs.Sampled || hs.Retained != 0 {
		t.Errorf("below the limit: count/sampled/retained = %d/%v/%d, want %d/false/0",
			hs.Count, hs.Sampled, hs.Retained, workers*half)
	}
	// workers copies of 0..half-1: the median straddles half/2-1 and half/2.
	if want := float64(half-1) / 2; hs.P50 != want || hs.Min != 0 || hs.Max != half-1 {
		t.Errorf("below the limit: min/p50/max = %g/%g/%g, want exactly 0/%g/%d", hs.Min, hs.P50, hs.Max, want, half-1)
	}

	observe(half, perWorker)
	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter c = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Counter("c2").Value(); got != 2*workers*perWorker {
		t.Errorf("counter c2 = %d, want %d", got, 2*workers*perWorker)
	}
	if got := reg.Gauge("gmax").Value(); got != workers*perWorker-1 {
		t.Errorf("gauge gmax = %g, want %d", got, workers*perWorker-1)
	}
	hs = reg.Histogram("h").Snapshot()
	if hs.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", hs.Count, workers*perWorker)
	}
	if hs.Min != 0 || hs.Max != perWorker-1 {
		t.Errorf("histogram min/max = %g/%g, want 0/%d", hs.Min, hs.Max, perWorker-1)
	}
	wantMean := float64(perWorker-1) / 2
	if math.Abs(hs.Mean-wantMean) > 1e-9 {
		t.Errorf("histogram mean = %g, want %g", hs.Mean, wantMean)
	}
	if !hs.Sampled || hs.Retained != HistogramRetain {
		t.Errorf("above the limit: sampled/retained = %v/%d, want true/%d", hs.Sampled, hs.Retained, HistogramRetain)
	}
	// Algorithm R leaves a uniform sample of k = HistogramRetain of the
	// observations, whatever order they arrived in. The population is spread
	// evenly over a range of width R = perWorker, so its density at the
	// median is 1/R and the sample median is asymptotically normal around
	// the true one with σ = 1/(2·(1/R)·√k) = R/(2√k) — 7.8 here; sampling
	// without replacement only narrows that. The bound is 6σ = 3R/√k, which
	// a correct reservoir exceeds about twice in 10⁹ runs.
	if bound := 3 * perWorker / math.Sqrt(HistogramRetain); math.Abs(hs.P50-wantMean) > bound {
		t.Errorf("histogram p50 = %g, want %g ± %.1f", hs.P50, wantMean, bound)
	}
	if ts := reg.Timer("t").Snapshot(); ts.Count != workers*perWorker {
		t.Errorf("timer count = %d, want %d", ts.Count, workers*perWorker)
	}
}

// TestNilRegistry checks that a nil registry is a usable no-op sink for
// every instrument, including Series and the span API reachable from a
// nil tracer.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("x").Max(1)
	reg.Histogram("x").Observe(1)
	reg.Timer("x").Start().Stop()

	// Series from a nil registry is live but unregistered: recording works,
	// nothing shows up in snapshots.
	s := reg.Series("x")
	s.RecordAt(time.Unix(0, 0), 1)
	s.RecordAt(time.Unix(0, 0), 2)
	if got, cur := s.Since(0); len(got) != 2 || cur != 2 {
		t.Errorf("nil-registry series len/cursor = %d/%d", len(got), cur)
	}
	if snap := s.Snapshot(); snap.Count != 2 || snap.Stats.Count != 2 {
		t.Errorf("nil-registry series snapshot count/stats = %d/%d", snap.Count, snap.Stats.Count)
	}

	// Watching an unregistered series is equally safe, as is a nil watcher.
	WatchSeries("x", s, nil, &EWMADetector{}).Poll()
	var w *Watcher
	if w.Poll() != nil {
		t.Error("nil watcher fired events")
	}

	snap := reg.Snapshot(nil)
	if snap.Schema != Schema || len(snap.Counters) != 0 || len(snap.Timeline) != 0 {
		t.Errorf("nil registry snapshot = %+v", snap)
	}
}

func TestTimerSpan(t *testing.T) {
	var tm Timer
	sp := tm.Start()
	time.Sleep(time.Millisecond)
	d := sp.Stop()
	if d < time.Millisecond {
		t.Errorf("span duration %v < 1ms", d)
	}
	s := tm.Snapshot()
	if s.Count != 1 || s.Sum < 0.001 {
		t.Errorf("timer snapshot = %+v", s)
	}
}

// TestSnapshotJSONRoundTrip exports a registry and re-parses the JSON.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shim.processed").Add(42)
	reg.Gauge("node.load.max").Max(1.25)
	for i := 0; i < 10; i++ {
		reg.Histogram("node.work").Observe(float64(i * i))
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, map[string]any{"run": "test", "seed": 7}); err != nil {
		t.Fatal(err)
	}
	var got RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if got.Schema != Schema {
		t.Errorf("schema = %q, want %q", got.Schema, Schema)
	}
	if got.Counters["shim.processed"] != 42 {
		t.Errorf("counter = %d, want 42", got.Counters["shim.processed"])
	}
	if got.Gauges["node.load.max"] != 1.25 {
		t.Errorf("gauge = %g, want 1.25", got.Gauges["node.load.max"])
	}
	if h := got.Histograms["node.work"]; h.Count != 10 || h.Max != 81 {
		t.Errorf("histogram = %+v", h)
	}
	if got.Meta["run"] != "test" {
		t.Errorf("meta = %v", got.Meta)
	}
}
