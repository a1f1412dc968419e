package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// metric is one reported value. Timings carry the quartiles and count of
// the samples their median was taken over; exact counts and derived values
// have N = 1.
type metric struct {
	Name, Unit string
	summary
}

// report collects one workload's metrics and its operation tally.
type report struct {
	Workload  string
	Metrics   []metric
	Attempted int
	Failed    int
	Failures  []string // first few failure descriptions, for the operator
}

func newReport(workload string) *report { return &report{Workload: workload} }

// add records a metric. A name emitted twice or a non-finite value is a
// harness bug and is counted as a failed operation so the run exits
// non-zero.
func (r *report) add(name, unit string, s summary) {
	for _, m := range r.Metrics {
		if m.Name == name {
			r.fail("metric %s emitted twice", name)
			return
		}
	}
	if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
		r.fail("metric %s is not finite", name)
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, summary: s})
}

// timing records the median of xs scaled by k (e.g. 1e3 for s → ms).
func (r *report) timing(name, unit string, xs []float64, k float64) {
	s := summarize(xs)
	s.Median, s.Q1, s.Q3 = s.Median*k, s.Q1*k, s.Q3*k
	r.add(name, unit, s)
}

// value records a single number: an exact count or a derived quantity.
func (r *report) value(name, unit string, v float64) {
	r.add(name, unit, summary{N: 1, Median: v, Q1: v, Q3: v})
}

// pctl records the p-th percentile of xs scaled by k. A percentile without
// minBeyond samples beyond it is not a percentile; asking for one is
// counted as a failure.
func (r *report) pctl(name, unit string, xs []float64, p, k float64) {
	v, ok := percentile(xs, p)
	if !ok {
		r.fail("%s: %d samples do not support p%g", name, len(xs), p)
	}
	r.add(name, unit, summary{N: len(xs), Median: v * k, Q1: v * k, Q3: v * k})
}

func (r *report) get(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Median
		}
	}
	return math.NaN()
}

// ops tallies attempted operations; fail tallies one failed operation.
func (r *report) ops(n int) { r.Attempted += n }

func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// failN tallies n failed operations under one description.
func (r *report) failN(n int, format string, args ...any) {
	r.fail(format, args...)
	r.Failed += n - 1
}

// check counts one attempted operation and fails it when err is non-nil.
func (r *report) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

func (r *report) print(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s · %s ==\n", r.Workload, title)
	fmt.Fprintf(w, "%-36s %16s %-6s %6s %14s %14s\n", "metric", "value", "unit", "n", "q1", "q3")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-36s %16.6g %-6s %6d %14.6g %14.6g\n", m.Name, m.Median, m.Unit, m.N, m.Q1, m.Q3)
	}
	fmt.Fprintf(w, "operations: attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// sink keeps results alive so timed loops are not eliminated.
var sink uint64

// overrun reports whether, n samples after start, one more of their average
// length would run past budget. Before the first sample nothing overruns.
func overrun(start time.Time, n int, budget time.Duration) bool {
	el := time.Since(start)
	return n > 0 && el+el/time.Duration(n) > budget
}

// collect takes timed samples of fn: at least lo, then more while another
// one still fits in budget, never more than hi. fn returns the sample (it
// times itself, so per-sample preparation stays outside the timed region);
// the heap is collected before every sample so no sample pays for its
// predecessor's garbage.
func collect(budget time.Duration, lo, hi int, fn func(i int) float64) []float64 {
	start := time.Now()
	var xs []float64
	for i := 0; i < max(hi, lo); i++ {
		if i >= lo && overrun(start, i, budget) {
			break
		}
		runtime.GC()
		xs = append(xs, fn(i))
	}
	return xs
}

// sampler is one measurement the end-to-end pass keeps repeating: take runs
// one timed sample and keeps the result with its stage.
type sampler struct {
	share float64 // of the measuring time
	floor int     // samples it needs whatever the time
	take  func()

	n    int
	used time.Duration
}

// schedule spends total on the samplers, each in proportion to its share,
// by always sampling the one furthest behind its share. So every metric's
// samples are spread over the whole run, not bunched in one slice of it:
// on shared hardware memory-bound code slows and recovers by a fifth over
// tens of seconds, and a metric sampled for one second sees one such phase
// where a metric sampled throughout sees their average. A sampler stops
// when its next sample would overrun total, once its floor is met.
func schedule(total time.Duration, ss []*sampler) {
	start := time.Now()
	for {
		elapsed := time.Since(start)
		var next *sampler
		var behind float64
		for _, s := range ss {
			if s.n >= s.floor && s.n > 0 && elapsed+s.used/time.Duration(s.n) > total {
				continue // done: another sample would not fit
			}
			b := s.share*float64(elapsed) - float64(s.used)
			if s.n < s.floor {
				b += float64(total) // floors first
			}
			if next == nil || b > behind {
				next, behind = s, b
			}
		}
		if next == nil {
			return
		}
		runtime.GC()
		t0 := time.Now()
		next.take()
		next.used += time.Since(t0)
		next.n++
	}
}

// pairs samples a and b in turn, swapping which goes first every round so
// neither always runs on the other's leftovers: at least lo rounds, then
// more while another round still fits in budget.
func pairs(budget time.Duration, lo int, a, b func(i int) float64) (as, bs []float64) {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= lo && overrun(start, i, budget) {
			return as, bs
		}
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		runtime.GC()
		x := first(i)
		runtime.GC()
		y := second(i)
		if i%2 == 1 {
			x, y = y, x
		}
		as, bs = append(as, x), append(bs, y)
	}
}

// timed runs fn once and returns its wall time in seconds.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}
