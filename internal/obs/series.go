package obs

import (
	"sync"
	"time"

	"nwids/internal/metrics"
)

// DefaultSeriesCap is the ring capacity a Series created without an
// explicit capacity uses. At the emulation's tick cadence this retains the
// entire run; long-running services keep a sliding window.
const DefaultSeriesCap = 512

// Sample is one timestamped observation of a Series.
type Sample struct {
	T time.Time
	V float64
}

// Series is a fixed-capacity time-series instrument: a ring buffer of
// timestamped samples with windowed summary statistics. It is the live
// analog of a Histogram — where a histogram forgets *when* a value was
// observed, a Series keeps the trajectory, which is what drift detection
// and load-vs-time timelines need. Once the ring is full the oldest
// samples are evicted; Count and Dropped in the snapshot record how much
// history fell off. The zero value is usable (wall clock, default
// capacity); Registry.Series hands out shared named instances stamped by
// the registry's clock. All methods are safe for concurrent use.
type Series struct {
	mu    sync.Mutex
	clock Clock
	buf   []Sample // ring, len == capacity once initialized
	head  int      // next write position
	n     int      // live samples in buf
	total uint64   // all-time observation count
}

// NewSeries returns a series with the given ring capacity (values < 1 use
// DefaultSeriesCap) stamping samples with clock (nil means Wall).
func NewSeries(capacity int, clock Clock) *Series {
	if capacity < 1 {
		capacity = DefaultSeriesCap
	}
	return &Series{buf: make([]Sample, capacity), clock: clockOrWall(clock)}
}

// init lazily sets up a zero-value Series.
func (s *Series) init() {
	if s.buf == nil {
		s.buf = make([]Sample, DefaultSeriesCap)
	}
	if s.clock == nil {
		s.clock = Wall
	}
}

// Record appends a sample stamped with the series' clock.
func (s *Series) Record(v float64) {
	s.mu.Lock()
	s.init()
	s.push(Sample{T: s.clock.Now(), V: v})
	s.mu.Unlock()
}

// RecordAt appends a sample with an explicit timestamp. Callers own the
// ordering: samples are retained in arrival order, not timestamp order.
func (s *Series) RecordAt(t time.Time, v float64) {
	s.mu.Lock()
	s.init()
	s.push(Sample{T: t, V: v})
	s.mu.Unlock()
}

// push appends under the caller's lock.
func (s *Series) push(sm Sample) {
	s.buf[s.head] = sm
	s.head = (s.head + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.total++
}

// Len returns the number of retained samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Total returns the all-time observation count, including evicted samples.
// Watchers use it as a cursor for Since.
func (s *Series) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Last returns the most recent sample, or ok = false for an empty series.
func (s *Series) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Sample{}, false
	}
	return s.buf[(s.head-1+len(s.buf))%len(s.buf)], true
}

// Samples returns the retained samples in arrival order (oldest first).
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samplesLocked()
}

func (s *Series) samplesLocked() []Sample { return s.tailLocked(s.n) }

// tailLocked copies the newest k retained samples (k <= s.n), oldest
// first, out of the ring: at most two contiguous runs.
func (s *Series) tailLocked(k int) []Sample {
	out := make([]Sample, k)
	start := (s.head - k + len(s.buf)) % len(s.buf)
	copied := copy(out, s.buf[start:])
	copy(out[copied:], s.buf)
	return out
}

// Since returns the samples whose all-time index is >= cursor (0 returns
// everything retained) along with the new cursor (the series' Total).
// Samples evicted before the call are gone; drift watchers poll with the
// cursor from the previous call to see each sample exactly once.
//
// Cost is proportional to what is returned, not to the ring: only the k
// samples newer than the cursor are copied, into one slice of length k, and
// a cursor at or past Total returns nil without allocating. The result
// always equals the last k elements of Samples().
func (s *Series) Since(cursor uint64) ([]Sample, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor >= s.total {
		return nil, s.total
	}
	k := s.n // everything retained; older samples were evicted
	if missed := s.total - cursor; missed < uint64(k) {
		k = int(missed)
	}
	return s.tailLocked(k), s.total
}

// SeriesStats summarizes a window of samples.
type SeriesStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
}

// Stats summarizes the trailing window of the given length, measured back
// from the newest sample's timestamp; window <= 0 summarizes every
// retained sample. An empty window yields the zero stats.
func (s *Series) Stats(window time.Duration) SeriesStats {
	samples := s.Samples()
	if window > 0 && len(samples) > 0 {
		cutoff := samples[len(samples)-1].T.Add(-window)
		lo := 0
		for lo < len(samples) && samples[lo].T.Before(cutoff) {
			lo++
		}
		samples = samples[lo:]
	}
	return statsOf(samples)
}

// statsOf computes summary statistics over samples.
func statsOf(samples []Sample) SeriesStats {
	if len(samples) == 0 {
		return SeriesStats{}
	}
	vs := make([]float64, len(samples))
	var sum float64
	for i, sm := range samples {
		vs[i] = sm.V
		sum += sm.V
	}
	q, _ := metrics.QuantilesOK(vs, 0, 0.5, 0.9, 1)
	return SeriesStats{
		Count: len(samples),
		Mean:  sum / float64(len(samples)),
		Min:   q[0],
		P50:   q[1],
		P90:   q[2],
		Max:   q[3],
	}
}

// SeriesSnapshot is the exported form of a Series: the retained samples as
// parallel offset/value arrays (ready to replot load-vs-time) plus summary
// statistics over the retained window.
type SeriesSnapshot struct {
	// Count is the all-time number of samples; Dropped counts those
	// evicted from the ring (Count - len(V)).
	Count   uint64 `json:"count"`
	Dropped uint64 `json:"dropped,omitempty"`
	// Start is the timestamp of the oldest retained sample; T holds each
	// retained sample's offset from Start in seconds, V its value.
	Start time.Time `json:"start"`
	T     []float64 `json:"t"`
	V     []float64 `json:"v"`
	// Stats summarizes the retained samples.
	Stats SeriesStats `json:"stats"`
}

// Snapshot captures the series' retained history and summary statistics.
func (s *Series) Snapshot() SeriesSnapshot {
	s.mu.Lock()
	samples := s.samplesLocked()
	total := s.total
	s.mu.Unlock()

	snap := SeriesSnapshot{
		Count:   total,
		Dropped: total - uint64(len(samples)),
		T:       make([]float64, len(samples)),
		V:       make([]float64, len(samples)),
		Stats:   statsOf(samples),
	}
	if len(samples) > 0 {
		snap.Start = samples[0].T
		for i, sm := range samples {
			snap.T[i] = sm.T.Sub(snap.Start).Seconds()
			snap.V[i] = sm.V
		}
	}
	return snap
}
