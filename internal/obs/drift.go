package obs

import (
	"math"
	"time"
)

// Drift detection turns a Series into a sensor: a detector consumes the
// series' samples in order and fires a DriftEvent when the underlying
// level shifts. Detection is pure float arithmetic over the sample stream
// — no wall clock, no randomness — so with a virtual clock the same
// workload fires the same events at the same virtual instants every run.
// The online controller roadmap item subscribes to exactly these events
// (re-solve the LP when a class's load drifts); today they surface as
// structured "drift" lines in the JSONL log via Watcher.

// DriftEvent describes one detected shift in a watched series.
type DriftEvent struct {
	// Series names the watched series; Detector is "ewma" or "cusum".
	Series   string
	Detector string
	// T is the timestamp of the sample that triggered the event.
	T time.Time
	// Value is the triggering sample, Baseline the level the detector had
	// tracked before the shift, Score the detector statistic at trigger.
	Value    float64
	Baseline float64
	Score    float64
	// Direction is +1 for an upward shift, -1 for downward.
	Direction int
}

// Detector is the incremental interface shared by the drift detectors.
// Observe consumes one sample and reports whether it triggered an event.
// After an event the detector re-baselines, so a single sustained shift
// fires exactly once.
type Detector interface {
	Observe(t time.Time, v float64) (DriftEvent, bool)
}

// EWMADetector flags samples that deviate from an exponentially weighted
// moving average by more than K standard deviations (estimated by an EWMA
// of the squared deviation). It reacts fast but only to single-sample
// excursions K·σ out; use CUSUM for slow creep.
type EWMADetector struct {
	// Alpha is the EWMA weight of the newest sample (default 0.25).
	Alpha float64
	// K is the trigger threshold in standard deviations (default 4).
	K float64
	// Warmup is the number of samples used to establish the baseline
	// before triggering is armed (default 8).
	Warmup int
	// MinSigma floors the deviation estimate so a perfectly flat warmup
	// does not make the detector a hair trigger (default 1e-9 scaled by
	// the baseline mean).
	MinSigma float64

	n        int
	mean     float64
	variance float64
}

func (d *EWMADetector) params() (alpha, k float64, warmup int) {
	alpha, k, warmup = d.Alpha, d.K, d.Warmup
	if alpha <= 0 || alpha > 1 {
		alpha = 0.25
	}
	if k <= 0 {
		k = 4
	}
	if warmup <= 0 {
		warmup = 8
	}
	return alpha, k, warmup
}

// sigmaFloor returns the minimum usable σ for a baseline mean.
func (d *EWMADetector) sigmaFloor(mean float64) float64 {
	if d.MinSigma > 0 {
		return d.MinSigma
	}
	return 1e-9 * (1 + math.Abs(mean))
}

// Observe consumes one sample. See Detector.
func (d *EWMADetector) Observe(t time.Time, v float64) (DriftEvent, bool) {
	alpha, k, warmup := d.params()
	if d.n < warmup {
		// Baseline establishment: plain running mean/variance (Welford).
		d.n++
		delta := v - d.mean
		d.mean += delta / float64(d.n)
		d.variance += delta * (v - d.mean)
		return DriftEvent{}, false
	}
	sigma := math.Sqrt(d.variance / float64(d.n))
	if floor := d.sigmaFloor(d.mean); sigma < floor {
		sigma = floor
	}
	dev := v - d.mean
	if math.Abs(dev) > k*sigma {
		ev := DriftEvent{
			Detector: "ewma", T: t, Value: v, Baseline: d.mean,
			Score: math.Abs(dev) / sigma, Direction: 1,
		}
		if dev < 0 {
			ev.Direction = -1
		}
		// Re-baseline at the new level so a sustained shift fires once.
		d.n, d.mean, d.variance = 0, 0, 0
		d.Observe(t, v)
		return ev, true
	}
	// Track the level: EWMA of mean and of squared deviation, variance
	// kept in the same "sum of squares" scale the warmup uses.
	d.mean += alpha * dev
	d.variance = (1-alpha)*d.variance + alpha*dev*dev*float64(d.n)
	return DriftEvent{}, false
}

// CUSUMDetector runs a two-sided tabular CUSUM over the sample stream: it
// accumulates deviations beyond a slack band around the warmup baseline
// and fires when the cumulative sum crosses the decision threshold. It
// catches small sustained shifts an EWMA band misses.
type CUSUMDetector struct {
	// Slack is the half-width of the ignored band in baseline standard
	// deviations (the tabular k, default 0.5).
	Slack float64
	// Threshold is the decision interval in baseline standard deviations
	// (the tabular h, default 5).
	Threshold float64
	// Warmup is the number of samples used to estimate the baseline mean
	// and deviation before accumulation starts (default 8).
	Warmup int
	// MinSigma floors the baseline deviation estimate (default 1e-9
	// scaled by the baseline mean).
	MinSigma float64

	n        int
	mean     float64
	variance float64
	sigma    float64
	hi, lo   float64 // cumulative sums, upper and lower
}

func (d *CUSUMDetector) params() (slack, threshold float64, warmup int) {
	slack, threshold, warmup = d.Slack, d.Threshold, d.Warmup
	if slack <= 0 {
		slack = 0.5
	}
	if threshold <= 0 {
		threshold = 5
	}
	if warmup <= 0 {
		warmup = 8
	}
	return slack, threshold, warmup
}

// Observe consumes one sample. See Detector.
func (d *CUSUMDetector) Observe(t time.Time, v float64) (DriftEvent, bool) {
	slack, threshold, warmup := d.params()
	if d.n < warmup {
		d.n++
		delta := v - d.mean
		d.mean += delta / float64(d.n)
		d.variance += delta * (v - d.mean)
		if d.n == warmup {
			d.sigma = math.Sqrt(d.variance / float64(d.n))
			floor := d.MinSigma
			if floor <= 0 {
				floor = 1e-9 * (1 + math.Abs(d.mean))
			}
			if d.sigma < floor {
				d.sigma = floor
			}
		}
		return DriftEvent{}, false
	}
	z := (v - d.mean) / d.sigma
	d.hi = math.Max(0, d.hi+z-slack)
	d.lo = math.Max(0, d.lo-z-slack)
	if d.hi > threshold || d.lo > threshold {
		ev := DriftEvent{
			Detector: "cusum", T: t, Value: v, Baseline: d.mean,
			Score: math.Max(d.hi, d.lo), Direction: 1,
		}
		if d.lo > d.hi {
			ev.Direction = -1
		}
		// Re-baseline: restart warmup at the shifted level.
		*d = CUSUMDetector{
			Slack: d.Slack, Threshold: d.Threshold,
			Warmup: d.Warmup, MinSigma: d.MinSigma,
		}
		d.Observe(t, v)
		return ev, true
	}
	return DriftEvent{}, false
}

// Watcher binds drift detectors to a named series and emits each detected
// event as a structured "drift" line through a JSONL logger. Poll it at
// whatever cadence suits the caller (the emulation polls once per tick);
// each retained sample is fed to the detectors exactly once.
type Watcher struct {
	name      string
	series    *Series
	log       *Logger
	detectors []Detector
	cursor    uint64
}

// WatchSeries creates a watcher over s. With a nil logger Poll still
// returns the events it fires but logs nothing; detectors run in the given
// order.
func WatchSeries(name string, s *Series, log *Logger, detectors ...Detector) *Watcher {
	return &Watcher{name: name, series: s, log: log, detectors: detectors}
}

// Poll feeds samples recorded since the previous Poll to the detectors and
// returns the events fired during this call.
func (w *Watcher) Poll() []DriftEvent {
	if w == nil || w.series == nil {
		return nil
	}
	samples, cursor := w.series.Since(w.cursor)
	w.cursor = cursor
	var fired []DriftEvent
	for _, sm := range samples {
		for _, det := range w.detectors {
			ev, ok := det.Observe(sm.T, sm.V)
			if !ok {
				continue
			}
			ev.Series = w.name
			fired = append(fired, ev)
			w.log.Warn("drift",
				"series", ev.Series, "detector", ev.Detector,
				"t", ev.T.UTC().Format(time.RFC3339Nano),
				"value", ev.Value, "baseline", ev.Baseline,
				"score", ev.Score, "direction", ev.Direction)
		}
	}
	return fired
}
