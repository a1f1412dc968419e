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

// samples returns s's retained samples, oldest first.
func samples(s *Series) []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samplesLocked()
}

func TestSeriesRecordAndStats(t *testing.T) {
	vc := virtualAt(0)
	s := NewSeries(8)
	for i := 0; i < 5; i++ {
		s.RecordAt(vc.Now(), float64(i+1)) // 1..5, one second apart
		vc.Advance(time.Second)
	}
	snap := s.Snapshot()
	if snap.Count != 5 || len(snap.V) != 5 || snap.V[4] != 5 {
		t.Fatalf("count/len/last = %d/%d/%v, want 5/5/5", snap.Count, len(snap.V), snap.V)
	}
	if st := snap.Stats; st.Count != 5 || st.Min != 1 || st.Max != 5 || st.Mean != 3 || st.P50 != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 10; i++ {
		s.RecordAt(time.Unix(int64(i), 0), float64(i))
	}
	for i, sm := range samples(s) {
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
	s := NewSeries(4)
	s.RecordAt(time.Unix(0, 0), 1)
	s.RecordAt(time.Unix(1, 0), 2)
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
		s.RecordAt(time.Unix(int64(2+i), 0), float64(10+i))
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
	s := NewSeries(8)
	s.RecordAt(vc.Now(), 1)
	vc.Advance(250 * time.Millisecond)
	s.RecordAt(vc.Now(), 2)
	snap := s.Snapshot()
	if !snap.Start.Equal(time.Unix(100, 0).UTC()) {
		t.Errorf("start = %v", snap.Start)
	}
	if snap.T[0] != 0 || snap.T[1] != 0.25 {
		t.Errorf("offsets = %v, want [0 0.25]", snap.T)
	}
}

// TestRegistrySeriesSharing checks registry series are shared by name and
// keep the timestamp their caller passed.
func TestRegistrySeriesSharing(t *testing.T) {
	reg := NewRegistry()
	at := time.Unix(7, 0).UTC()
	reg.Series("load").RecordAt(at, 1)
	got := samples(reg.Series("load"))
	if len(got) != 1 {
		t.Fatalf("named series not shared: len = %d", len(got))
	}
	if !got[0].T.Equal(at) {
		t.Errorf("sample time = %v, want %v", got[0].T, at)
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
				reg.Series("stress.shared").Snapshot()
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
				reg.Series("stress.shared").RecordAt(time.Unix(int64(i), 0), float64(i))
				own.RecordAt(time.Unix(int64(i), 0), float64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	if got := reg.Series("stress.shared").Snapshot().Count; got != workers*iters {
		t.Errorf("shared series total = %d, want %d (lost samples)", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := reg.Series(fmt.Sprintf("stress.worker.%d", w)).Snapshot().Count; got != iters {
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
}

// TestSeriesSinceMatchesSamples pins Since to its executable spec: for
// every cursor, Since(c) is the tail of the retained samples holding the
// samples whose all-time index is >= c. The ring is checked before it fills, exactly
// full, and at every head position after wrapping, with cursors that are
// evicted (older than anything retained), live, equal to Total and past it.
func TestSeriesSinceMatchesSamples(t *testing.T) {
	const capacity = 8
	vc := virtualAt(0)
	s := NewSeries(capacity)
	for total := uint64(0); total <= 3*capacity+3; total++ {
		all := samples(s)
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
				// samplesLocked shares the ring-copy helper with Since, so also
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
		s.RecordAt(vc.Now(), float64(total))
		vc.Advance(time.Second)
	}
}

// TestSeriesSinceAllocFree: a poll with nothing new allocates nothing, and
// a poll with k new samples allocates one slice of exactly k — never the
// whole ring.
func TestSeriesSinceAllocFree(t *testing.T) {
	s := NewSeries(0) // DefaultSeriesCap slots
	const total = 2 * DefaultSeriesCap
	for i := 0; i < total; i++ {
		s.RecordAt(time.Unix(int64(i), 0), float64(i))
	}
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
