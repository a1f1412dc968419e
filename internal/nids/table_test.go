package nids

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives table[uint64, int32] with random get, find,
// each and reset calls and checks every answer against a Go map. Three
// hashes cover the probe paths: mix64 (the production finalizer), a 2-bit
// hash whose long probe chains cross many slots, and a constant hash that
// starts every probe at the last slot, so every probe past it wraps to slot
// 0. The zero key is drawn often — an empty slot also holds key 0, so only
// the occupancy bitset tells them apart — and resets land mid-stream, right
// after a get set the last-slot memo.
func TestTableMatchesMap(t *testing.T) {
	hashes := []struct {
		name string
		fn   func(uint64) uint64
		keys int // key range; the constant hash probes every entry, so it gets fewer
	}{
		{"mix64", mix64, 2000},
		{"2-bit", func(k uint64) uint64 { return mix64(k) & 3 }, 600},
		{"constant", func(uint64) uint64 { return ^uint64(0) }, 300},
	}
	for _, h := range hashes {
		t.Run(h.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tab := table[uint64, int32]{hash: h.fn}
			model := make(map[uint64]int32)
			key := func() uint64 {
				if rng.Intn(8) == 0 {
					return 0
				}
				return uint64(rng.Intn(h.keys))
			}
			var resets, grows int
			var lastGot uint64
			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(1000); {
				case r < 2: // reset
					slots := len(tab.slots)
					tab.reset()
					clear(model)
					resets++
					if len(tab.slots) != slots {
						t.Fatalf("op %d: reset changed the slot count %d → %d", op, slots, len(tab.slots))
					}
					// A memo that outlived the reset would answer for
					// the last key got, or for key 0 (what its slot
					// holds now): get one of them, or any key.
					k := [3]uint64{lastGot, 0, key()}[rng.Intn(3)]
					if v := tab.cached(k); v != nil {
						t.Fatalf("op %d: cached(%d) right after reset found the key", op, k)
					}
					if _, inserted := tab.get(k, h.fn(k)); !inserted {
						t.Fatalf("op %d: get(%d) right after reset found the key", op, k)
					}
					model[k] = 0
					lastGot = k
				case r < 12: // each
					seen := 0
					tab.each(func(k uint64, v int32) {
						seen++
						if want, ok := model[k]; !ok || v != want {
							t.Fatalf("op %d: each yielded %d=%d, model has %d (present %v)", op, k, v, want, ok)
						}
					})
					if seen != len(model) {
						t.Fatalf("op %d: each yielded %d entries, model has %d", op, seen, len(model))
					}
				case r < 400: // find
					k := key()
					v, found := tab.find(k, h.fn(k))
					if want, ok := model[k]; found != ok || v != want {
						t.Fatalf("op %d: find(%d) = %d, %v; model %d, %v", op, k, v, found, want, ok)
					}
				default: // get, through cached half the time as the engine does
					k := key()
					if rng.Intn(4) == 0 {
						k = lastGot // a run of one key: the memo path
					}
					slots := len(tab.slots)
					v, inserted := (*int32)(nil), false
					if rng.Intn(2) == 0 {
						v = tab.cached(k)
					}
					if v == nil {
						v, inserted = tab.get(k, h.fn(k))
					}
					if slots > 0 && len(tab.slots) != slots {
						grows++ // a doubling, not the first allocation
					}
					want, ok := model[k]
					if inserted == ok {
						t.Fatalf("op %d: get(%d) inserted=%v, model present=%v", op, k, inserted, ok)
					}
					if *v != want {
						t.Fatalf("op %d: get(%d) = %d, model %d", op, k, *v, want)
					}
					*v++
					model[k]++
					lastGot = k
					if c := tab.cached(k); c != v {
						t.Fatalf("op %d: cached(%d) right after its get = %p, want %p", op, k, c, v)
					}
				}
				if tab.count != len(model) {
					t.Fatalf("op %d: table holds %d entries, model %d", op, tab.count, len(model))
				}
			}
			if resets < 5 || grows == 0 {
				t.Fatalf("stream exercised too little: %d resets, %d grows", resets, grows)
			}
		})
	}
}
