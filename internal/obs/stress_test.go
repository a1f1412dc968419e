package obs

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestRegistryStressConcurrent is the race audit for the parallel sweep
// engine: many goroutines hammer counters, gauges, histograms and span
// timers on one registry — creating instruments by name concurrently, the
// access pattern of concurrent solver jobs — while snapshot/export runs in
// parallel. Run under -race (CI does), it proves
// the registry's read and write paths are race-clean; the final
// assertions prove no observation is lost under contention.
func TestRegistryStressConcurrent(t *testing.T) {
	const (
		workers = 16
		iters   = 400
	)
	reg := NewRegistry()

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	// Concurrent readers: snapshot and JSON export must be safe while
	// instruments are created and updated.
	for r := 0; r < 3; r++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot(map[string]any{"run": "stress"})
				if snap.Schema != Schema {
					t.Errorf("schema = %q", snap.Schema)
					return
				}
				if err := reg.WriteJSON(io.Discard, nil); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Shared instruments: all workers contend on one name.
				reg.Counter("stress.ops").Inc()
				reg.Gauge("stress.peak").Max(float64(w*iters + i))
				reg.Histogram("stress.samples").Observe(float64(i))
				sp := reg.Timer("stress.span").Start()
				// Per-worker instruments: concurrent map insertion path.
				reg.Counter(fmt.Sprintf("stress.worker.%d.ops", w)).Inc()
				sp.Stop()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	snap := reg.Snapshot(nil)
	if got := snap.Counters["stress.ops"]; got != workers*iters {
		t.Errorf("stress.ops = %d, want %d (lost increments)", got, workers*iters)
	}
	if got := snap.Histograms["stress.samples"].Count; got != workers*iters {
		t.Errorf("histogram count = %d, want %d (lost observations)", got, workers*iters)
	}
	if got := snap.Timers["stress.span"].Count; got != workers*iters {
		t.Errorf("timer count = %d, want %d (lost spans)", got, workers*iters)
	}
	wantPeak := float64((workers-1)*iters + iters - 1)
	if got := snap.Gauges["stress.peak"]; got != wantPeak {
		t.Errorf("gauge max = %g, want %g", got, wantPeak)
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("stress.worker.%d.ops", w)
		if got := snap.Counters[name]; got != iters {
			t.Errorf("%s = %d, want %d", name, got, iters)
		}
	}
}
