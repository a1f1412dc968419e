package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func virtualAt(sec int64) *VirtualClock {
	return NewVirtualClock(time.Unix(sec, 0).UTC())
}

func TestSeriesRecordAndStats(t *testing.T) {
	vc := virtualAt(0)
	s := NewSeries(8, vc)
	for i := 0; i < 5; i++ {
		s.Record(float64(i + 1)) // 1..5, one second apart
		vc.Advance(time.Second)
	}
	if s.Len() != 5 || s.Total() != 5 {
		t.Fatalf("len/total = %d/%d, want 5/5", s.Len(), s.Total())
	}
	last, ok := s.Last()
	if !ok || last.V != 5 {
		t.Fatalf("last = %+v ok=%v, want v=5", last, ok)
	}
	st := s.Stats(0)
	if st.Count != 5 || st.Min != 1 || st.Max != 5 || st.Mean != 3 {
		t.Errorf("whole-ring stats = %+v", st)
	}
	// Trailing 2s window from the newest sample (t=4s) covers t ∈ [2s, 4s]:
	// samples 3, 4, 5.
	st = s.Stats(2 * time.Second)
	if st.Count != 3 || st.Min != 3 || st.Max != 5 {
		t.Errorf("windowed stats = %+v, want count=3 min=3 max=5", st)
	}
}

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeries(4, virtualAt(0))
	for i := 0; i < 10; i++ {
		s.Record(float64(i))
	}
	if s.Len() != 4 || s.Total() != 10 {
		t.Fatalf("len/total = %d/%d, want 4/10", s.Len(), s.Total())
	}
	got := s.Samples()
	for i, sm := range got {
		if want := float64(6 + i); sm.V != want {
			t.Errorf("samples[%d].V = %g, want %g", i, sm.V, want)
		}
	}
	snap := s.Snapshot()
	if snap.Count != 10 || snap.Dropped != 6 || len(snap.V) != 4 {
		t.Errorf("snapshot count/dropped/len = %d/%d/%d", snap.Count, snap.Dropped, len(snap.V))
	}
}

func TestSeriesSinceCursor(t *testing.T) {
	s := NewSeries(4, virtualAt(0))
	s.Record(1)
	s.Record(2)
	got, cur := s.Since(0)
	if len(got) != 2 || cur != 2 {
		t.Fatalf("Since(0) = %d samples, cursor %d", len(got), cur)
	}
	// Nothing new: empty batch, cursor unchanged.
	got, cur = s.Since(cur)
	if len(got) != 0 || cur != 2 {
		t.Fatalf("Since(2) = %d samples, cursor %d", len(got), cur)
	}
	// Overflow the ring past the cursor: only retained samples come back.
	for i := 0; i < 6; i++ {
		s.Record(float64(10 + i))
	}
	got, cur = s.Since(cur)
	if len(got) != 4 || cur != 8 {
		t.Fatalf("Since after overflow = %d samples, cursor %d, want 4, 8", len(got), cur)
	}
	if got[0].V != 12 || got[3].V != 15 {
		t.Errorf("post-overflow batch = %v", got)
	}
}

func TestSeriesSnapshotOffsets(t *testing.T) {
	vc := virtualAt(100)
	s := NewSeries(8, vc)
	s.Record(1)
	vc.Advance(250 * time.Millisecond)
	s.Record(2)
	snap := s.Snapshot()
	if !snap.Start.Equal(time.Unix(100, 0).UTC()) {
		t.Errorf("start = %v", snap.Start)
	}
	if snap.T[0] != 0 || snap.T[1] != 0.25 {
		t.Errorf("offsets = %v, want [0 0.25]", snap.T)
	}
}

func TestSeriesZeroValue(t *testing.T) {
	var s Series
	s.Record(3)
	if s.Len() != 1 {
		t.Fatalf("zero-value series len = %d", s.Len())
	}
	if last, ok := s.Last(); !ok || last.V != 3 || last.T.IsZero() {
		t.Errorf("zero-value series last = %+v ok=%v (wall clock expected)", last, ok)
	}
}

// TestRegistrySeriesSharing checks registry series are shared by name and
// stamped by the registry clock.
func TestRegistrySeriesSharing(t *testing.T) {
	vc := virtualAt(7)
	reg := NewRegistryWithClock(vc)
	reg.Series("load").Record(1)
	if got := reg.Series("load").Len(); got != 1 {
		t.Fatalf("named series not shared: len = %d", got)
	}
	last, _ := reg.Series("load").Last()
	if !last.T.Equal(time.Unix(7, 0).UTC()) {
		t.Errorf("sample time = %v, want registry clock time", last.T)
	}
	snap := reg.Snapshot(nil)
	if _, ok := snap.Timeline["load"]; !ok {
		t.Errorf("timeline missing series: %v", snap.Timeline)
	}
}

// TestSeriesStressConcurrent mirrors TestRegistryStressConcurrent for the
// Series instrument: concurrent writers on shared and per-worker series
// while snapshots run. Run under -race (CI does); the assertions prove no
// sample is lost under contention.
func TestSeriesStressConcurrent(t *testing.T) {
	const (
		workers = 16
		iters   = 400
	)
	reg := NewRegistry()

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
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
				reg.Snapshot(nil)
				reg.Series("stress.shared").Stats(0)
				reg.Series("stress.shared").Since(0)
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := reg.Series(fmt.Sprintf("stress.worker.%d", w))
			for i := 0; i < iters; i++ {
				reg.Series("stress.shared").Record(float64(i))
				own.RecordAt(time.Unix(int64(i), 0), float64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	if got := reg.Series("stress.shared").Total(); got != workers*iters {
		t.Errorf("shared series total = %d, want %d (lost samples)", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := reg.Series(fmt.Sprintf("stress.worker.%d", w)).Total(); got != iters {
			t.Errorf("worker %d series total = %d, want %d", w, got, iters)
		}
	}
}

func TestVirtualClock(t *testing.T) {
	vc := virtualAt(0)
	t0 := vc.Now()
	if got := vc.Advance(3 * time.Second); !got.Equal(t0.Add(3 * time.Second)) {
		t.Errorf("advance returned %v", got)
	}
	if !vc.Now().Equal(t0.Add(3 * time.Second)) {
		t.Errorf("now = %v", vc.Now())
	}
	vc.Set(t0)
	if !vc.Now().Equal(t0) {
		t.Errorf("set failed: %v", vc.Now())
	}
}

// TestSeriesSinceMatchesSamples pins Since to its executable spec: for
// every cursor, Since(c) is the tail of Samples() holding the samples whose
// all-time index is >= c. The ring is checked before it fills, exactly
// full, and at every head position after wrapping, with cursors that are
// evicted (older than anything retained), live, equal to Total and past it.
func TestSeriesSinceMatchesSamples(t *testing.T) {
	const capacity = 8
	vc := virtualAt(0)
	s := NewSeries(capacity, vc)
	for total := uint64(0); total <= 3*capacity+3; total++ {
		all := s.Samples()
		for c := uint64(0); c <= total+2; c++ {
			got, cursor := s.Since(c)
			if cursor != total {
				t.Fatalf("total %d: Since(%d) cursor = %d", total, c, cursor)
			}
			want := uint64(len(all)) // an evicted cursor sees everything retained
			if c >= total {
				want = 0
			} else if total-c < want {
				want = total - c
			}
			if uint64(len(got)) != want {
				t.Fatalf("total %d: Since(%d) returned %d samples, want %d", total, c, len(got), want)
			}
			for i, sm := range got {
				if sm != all[len(all)-len(got)+i] {
					t.Fatalf("total %d: Since(%d)[%d] = %+v, want %+v", total, c, i, sm, all[len(all)-len(got)+i])
				}
				// Samples shares the ring-copy helper with Since, so also
				// hold each sample to the model: the i-th observation ever
				// recorded carries value i.
				if idx := total - uint64(len(got)) + uint64(i); sm.V != float64(idx) {
					t.Fatalf("total %d: Since(%d)[%d].V = %v, want all-time index %d", total, c, i, sm.V, idx)
				}
			}
			if want == 0 && got != nil {
				t.Fatalf("total %d: Since(%d) = %v, want nil for a cursor with nothing newer", total, c, got)
			}
		}
		s.Record(float64(total))
		vc.Advance(time.Second)
	}
}

// TestSeriesSinceAllocFree: a poll with nothing new allocates nothing, and
// a poll with k new samples allocates one slice of exactly k — never the
// whole ring.
func TestSeriesSinceAllocFree(t *testing.T) {
	s := NewSeries(0, virtualAt(0)) // DefaultSeriesCap slots
	for i := 0; i < 2*DefaultSeriesCap; i++ {
		s.RecordAt(time.Unix(int64(i), 0), float64(i))
	}
	total := s.Total()
	if allocs := testing.AllocsPerRun(100, func() { s.Since(total) }); allocs != 0 {
		t.Errorf("Since with nothing new: %v allocs/run, want 0", allocs)
	}
	for _, k := range []int{1, 3} {
		var got []Sample
		allocs := testing.AllocsPerRun(100, func() { got, _ = s.Since(total - uint64(k)) })
		if allocs > 1 {
			t.Errorf("Since with %d new: %v allocs/run, want at most 1", k, allocs)
		}
		if len(got) != k || cap(got) != k {
			t.Errorf("Since with %d new: len %d cap %d, want both %d", k, len(got), cap(got), k)
		}
	}
}
