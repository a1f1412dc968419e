package obs

import (
	"bytes"
	"testing"
	"time"
)

// feedShift drives a detector with a flat baseline followed by a sustained
// level shift, returning every event fired.
func feedShift(d Detector, baseline, shifted float64, nBase, nShift int) []DriftEvent {
	var events []DriftEvent
	t0 := time.Unix(0, 0).UTC()
	i := 0
	feed := func(v float64, n int) {
		for k := 0; k < n; k++ {
			// A small deterministic wobble so sigma is nonzero.
			wobble := 0.01 * float64(i%3-1)
			if ev, ok := d.Observe(t0.Add(time.Duration(i)*time.Second), v+wobble); ok {
				events = append(events, ev)
			}
			i++
		}
	}
	feed(baseline, nBase)
	feed(shifted, nShift)
	return events
}

// TestDriftExactlyOnce is the issue's acceptance check: a synthetic load
// shift fires exactly one drift event per detector, deterministically.
func TestDriftExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Detector
	}{
		{"ewma", func() Detector { return &EWMADetector{} }},
		{"cusum", func() Detector { return &CUSUMDetector{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := feedShift(tc.mk(), 1.0, 2.0, 40, 40)
			if len(events) != 1 {
				t.Fatalf("got %d events, want exactly 1: %+v", len(events), events)
			}
			ev := events[0]
			if ev.Direction != 1 {
				t.Errorf("direction = %d, want +1 (upward shift)", ev.Direction)
			}
			if ev.Value < 1.9 || ev.Value > 2.1 {
				t.Errorf("trigger value = %g, want ≈2.0", ev.Value)
			}
			if ev.Baseline < 0.9 || ev.Baseline > 1.3 {
				t.Errorf("baseline = %g, want ≈1.0", ev.Baseline)
			}
			// Determinism: the same input stream reproduces the same event.
			again := feedShift(tc.mk(), 1.0, 2.0, 40, 40)
			if len(again) != 1 || again[0] != ev {
				t.Errorf("rerun diverged: %+v vs %+v", again, events)
			}
		})
	}
}

func TestDriftDownwardShift(t *testing.T) {
	events := feedShift(&CUSUMDetector{}, 5.0, 3.0, 40, 40)
	if len(events) != 1 || events[0].Direction != -1 {
		t.Fatalf("downward shift: got %+v, want one event with direction -1", events)
	}
}

// TestDriftRebaseline: after firing, detectors adopt the new level; a
// second shift fires a second (single) event.
func TestDriftRebaseline(t *testing.T) {
	d := &EWMADetector{}
	ev1 := feedShift(d, 1.0, 2.0, 40, 40)
	if len(ev1) != 1 {
		t.Fatalf("first shift: %d events", len(ev1))
	}
	// Continue the same detector: another shift from 2.0 to 4.0.
	ev2 := feedShift(d, 2.0, 4.0, 40, 40)
	if len(ev2) != 1 {
		t.Fatalf("second shift: %d events, want 1 (re-baseline failed)", len(ev2))
	}
	if ev2[0].Baseline < 1.8 || ev2[0].Baseline > 2.4 {
		t.Errorf("second baseline = %g, want ≈2.0", ev2[0].Baseline)
	}
}

func TestDriftStableNoFire(t *testing.T) {
	if events := feedShift(&EWMADetector{}, 1.0, 1.0, 50, 50); len(events) != 0 {
		t.Errorf("EWMA fired on stable signal: %+v", events)
	}
	if events := feedShift(&CUSUMDetector{}, 1.0, 1.0, 50, 50); len(events) != 0 {
		t.Errorf("CUSUM fired on stable signal: %+v", events)
	}
}

// TestWatcherLogsDrift wires a Series through a Watcher and checks the
// structured drift event reaches the JSONL log exactly once.
func TestWatcherLogsDrift(t *testing.T) {
	vc := virtualAt(0)
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelWarn)
	s := NewSeries(256)
	w := WatchSeries("emulation.node.0.work_units", s, log, &CUSUMDetector{})

	for i := 0; i < 40; i++ {
		s.RecordAt(vc.Now(), 1.0+0.01*float64(i%3-1))
		vc.Advance(time.Second)
		if fired := w.Poll(); len(fired) != 0 {
			t.Fatalf("fired during baseline: %+v", fired)
		}
	}
	for i := 0; i < 40; i++ {
		s.RecordAt(vc.Now(), 2.0+0.01*float64(i%3-1))
		vc.Advance(time.Second)
	}
	// One poll drains the whole batch.
	if fired := w.Poll(); len(fired) != 1 {
		t.Fatalf("got %d events, want 1", len(fired))
	}

	var drift int
	for _, e := range decodeLog(t, &buf) {
		if e["msg"] == "drift" {
			drift++
			if e["series"] != "emulation.node.0.work_units" {
				t.Errorf("series field = %v", e["series"])
			}
			if e["detector"] != "cusum" {
				t.Errorf("detector field = %v", e["detector"])
			}
			if e["direction"] != float64(1) {
				t.Errorf("direction field = %v", e["direction"])
			}
		}
	}
	if drift != 1 {
		t.Errorf("%d drift log lines, want 1", drift)
	}
}

// TestWatcherNilLog: a Watcher without a logger still returns its events.
func TestWatcherNilLog(t *testing.T) {
	s := NewSeries(256)
	w := WatchSeries("x", s, nil, &EWMADetector{})
	for i := 0; i < 80; i++ {
		level := 1.0
		if i >= 40 {
			level = 2.0
		}
		s.RecordAt(time.Unix(int64(i), 0), level+0.01*float64(i%3-1))
	}
	if fired := w.Poll(); len(fired) != 1 {
		t.Errorf("got %d events, want 1", len(fired))
	}
}

// TestWatcherPollAllocFree gates the telemetry tick's per-watcher cost: a
// Poll that finds nothing new allocates nothing, and a Poll that consumes
// one quiet sample allocates only the one-sample slice Since returns.
func TestWatcherPollAllocFree(t *testing.T) {
	s := NewSeries(0)
	w := WatchSeries("load", s, nil, &CUSUMDetector{}, &EWMADetector{})
	for i := 0; i < 2*DefaultSeriesCap; i++ {
		s.RecordAt(time.Unix(int64(i), 0), 100)
	}
	fired := len(w.Poll())
	if allocs := testing.AllocsPerRun(100, func() { fired += len(w.Poll()) }); allocs != 0 {
		t.Errorf("Poll with nothing new: %v allocs/run, want 0", allocs)
	}
	at := int64(2 * DefaultSeriesCap)
	allocs := testing.AllocsPerRun(100, func() {
		s.RecordAt(time.Unix(at, 0), 100)
		at++
		fired += len(w.Poll())
	})
	if allocs > 1 {
		t.Errorf("Poll with one new sample: %v allocs/run, want at most 1", allocs)
	}
	if fired != 0 {
		t.Fatalf("flat series fired %d drift events", fired)
	}
}
