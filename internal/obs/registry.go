// Package obs is the repository's telemetry plane: a dependency-free
// metrics registry (counters, max-tracking gauges, histograms with quantile
// export, duration timers, and ring-buffer time series), drift detectors
// that watch a series, a span tracer exporting Chrome trace_event
// timelines, a leveled JSONL logger, an OpenMetrics endpoint that also
// mounts the pprof handlers, and CPU/heap profile files. The binaries, the
// experiment harness, the controller and the emulation record into a
// Registry, so each run can leave a machine-readable metrics artifact (the
// reproduction's analog of the paper's PAPI/byte-hop measurements, §8)
// and, with -listen, be scraped live mid-run. The LP solver and the shim
// do not import obs: core.RecordLPStats copies lp.SolveStats in after a
// solve, and the emulation copies the shim counters at the end of a run.
//
// Timestamps that reach an artifact are deterministic under the
// emulation's VirtualClock: series samples carry the time their caller
// passes to RecordAt, and the tracer reads the Clock it was built with.
// Timers measure wall time, and the Logger stamps each line with
// time.Now; neither is part of a pinned output.
//
// Every name this package exports has a reader outside its tests; DESIGN.md
// lists each one with its reader, and TestExportsHaveReaders keeps that
// table complete.
//
// All instruments are safe for concurrent use. A nil *Registry is a valid
// no-op sink: lookups on it return live but unregistered instruments, so
// instrumented code never needs nil checks.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nwids/internal/metrics"
)

// Schema identifies the JSON layout written by WriteJSON; bump when the
// export shape changes incompatibly. v2 added the timeline section (Series
// snapshots) and the sampled/retained histogram fields.
const Schema = "nwids.obs.v2"

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 high-water mark: Max only ever raises it.
type Gauge struct{ bits atomic.Uint64 }

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramRetain is the number of observations a Histogram keeps exactly.
// Up to this many samples the exported quantiles are exact; beyond it the
// histogram switches to a fixed-size uniform reservoir (Algorithm R driven
// by a seeded splitmix64 stream, never the global math/rand), so quantiles
// become estimates over HistogramRetain samples while count, sum, mean,
// min and max stay exact. The switch is visible in the export via the
// sampled/retained fields. This bounds memory for million-session runs;
// the reservoir content is deterministic for a fixed observation order.
const HistogramRetain = 4096

// histogramSeed seeds every histogram's reservoir stream. A fixed constant
// keeps sampled exports reproducible run to run.
const histogramSeed = 0x6e77696473_0b5e55

// Histogram accumulates float64 observations and exports count, sum,
// extremes, mean and quantiles. The first HistogramRetain observations are
// retained exactly; see HistogramRetain for the sampling regime past that.
type Histogram struct {
	mu    sync.Mutex
	xs    []float64
	count uint64
	sum   float64
	min   float64
	max   float64
	rng   uint64 // splitmix64 state for the reservoir, lazily seeded
}

// splitmix64 advances *state and returns the next value of the stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	h.count++
	h.sum += x
	if h.count == 1 || x < h.min {
		h.min = x
	}
	if h.count == 1 || x > h.max {
		h.max = x
	}
	if len(h.xs) < HistogramRetain {
		h.xs = append(h.xs, x)
	} else {
		// Algorithm R: keep each of the count samples with equal
		// probability HistogramRetain/count.
		if h.rng == 0 {
			h.rng = histogramSeed
		}
		if j := splitmix64(&h.rng) % h.count; j < HistogramRetain {
			h.xs[j] = x
		}
	}
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is the exported summary of a histogram. Count, Sum,
// Mean, Min and Max are always exact; once Sampled is set the quantiles
// are estimated from a Retained-sized uniform reservoir (the switch point
// is HistogramRetain observations).
type HistogramSnapshot struct {
	Count    int     `json:"count"`
	Sum      float64 `json:"sum"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Mean     float64 `json:"mean"`
	P25      float64 `json:"p25"`
	P50      float64 `json:"p50"`
	P75      float64 `json:"p75"`
	P90      float64 `json:"p90"`
	P99      float64 `json:"p99"`
	Sampled  bool    `json:"sampled,omitempty"`
	Retained int     `json:"retained,omitempty"`
}

// Snapshot summarizes the observations so far. The zero snapshot is
// returned for an empty histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	q, ok := metrics.QuantilesOK(h.xs, 0, 0.25, 0.5, 0.75, 0.9, 0.99, 1)
	if !ok {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Count: int(h.count),
		Sum:   h.sum,
		Min:   h.min,
		P25:   q[1],
		P50:   q[2],
		P75:   q[3],
		P90:   q[4],
		P99:   q[5],
		Max:   h.max,
		Mean:  h.sum / float64(h.count),
	}
	if h.count > uint64(len(h.xs)) {
		snap.Sampled = true
		snap.Retained = len(h.xs)
	}
	return snap
}

// Timer records span durations into a histogram of seconds. Spans are
// timed on Wall; durations measured elsewhere go in via ObserveDuration.
type Timer struct{ h Histogram }

// Span is one in-flight timed region.
type Span struct {
	t     *Timer
	start time.Time
}

// Start opens a span; Stop on the returned value records it.
func (t *Timer) Start() Span { return Span{t: t, start: Wall.Now()} }

// Stop closes the span and returns its duration.
func (s Span) Stop() time.Duration {
	d := Wall.Now().Sub(s.start)
	s.t.h.ObserveDuration(d)
	return d
}

// ObserveDuration records an externally measured duration (for code that
// already tracks wall time itself, e.g. lp.Solution.SolveTime).
func (t *Timer) ObserveDuration(d time.Duration) { t.h.ObserveDuration(d) }

// Snapshot summarizes the recorded spans (values in seconds).
func (t *Timer) Snapshot() HistogramSnapshot { return t.h.Snapshot() }

// Registry holds named instruments. Instruments are created on first use
// and shared by name thereafter. The zero value is ready to use; a nil
// *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Timer returns the named timer, creating it if needed.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return new(Timer)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timers == nil {
		r.timers = make(map[string]*Timer)
	}
	t, ok := r.timers[name]
	if !ok {
		t = new(Timer)
		r.timers[name] = t
	}
	return t
}

// Series returns the named time series, creating it with the default
// capacity if needed.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return NewSeries(0)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.series == nil {
		r.series = make(map[string]*Series)
	}
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(0)
		r.series[name] = s
	}
	return s
}

// Snapshot captures every instrument into a JSON-ready structure. Map keys
// are instrument names; histogram and timer values are their summaries;
// timeline holds each Series' retained history so load-vs-time can be
// replotted from the artifact.
type RegistrySnapshot struct {
	Schema     string                       `json:"schema"`
	Meta       map[string]any               `json:"meta,omitempty"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Timers     map[string]HistogramSnapshot `json:"timers"`
	Timeline   map[string]SeriesSnapshot    `json:"timeline"`
}

// Snapshot captures the registry's current state. meta is attached verbatim
// (run identifiers, configuration echo, timestamps); it may be nil.
func (r *Registry) Snapshot(meta map[string]any) RegistrySnapshot {
	snap := RegistrySnapshot{
		Schema:     Schema,
		Meta:       meta,
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Timers:     map[string]HistogramSnapshot{},
		Timeline:   map[string]SeriesSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.Snapshot()
	}
	for name, t := range r.timers {
		snap.Timers[name] = t.Snapshot()
	}
	for name, s := range r.series {
		snap.Timeline[name] = s.Snapshot()
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer, meta map[string]any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot(meta))
}

// WriteJSONFile writes the snapshot to path, creating or truncating it.
func (r *Registry) WriteJSONFile(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f, meta); err != nil {
		//lint:ignore errdiscard error-path cleanup: the WriteJSON error is the one worth surfacing
		f.Close()
		return err
	}
	return f.Close()
}
