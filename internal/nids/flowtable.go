package nids

import "nwids/internal/packet"

// flowTable is an open-addressing (linear-probe) hash table mapping
// canonical 5-tuples to inline flowState values. Compared to the
// map[FiveTuple]*flowState it replaced, a lookup touches one contiguous
// entry (key and state share a cache line) and inserting a flow allocates
// nothing: the per-flow heap pointer is gone, and capacity is reused
// across epochs (see reset). Entries are never deleted individually —
// flows only leave at epoch rollover, which clears the whole table.
type flowTable struct {
	entries []flowEntry
	count   int
	// last memoizes the slot returned by the previous get, stored as
	// index+1 (0 = none). Packets of one session arrive back to back, so
	// most lookups are a single key compare instead of a hash and probe.
	// Invalidated by grow and reset, the only events that move entries.
	last int
}

// flowEntry is one slot: the canonical tuple plus the inline per-flow
// state. fs.live doubles as the occupancy marker.
type flowEntry struct {
	key packet.FiveTuple
	fs  flowState
}

// flowTableMinSize is the initial slot count (power of two). Kept small so
// the clear-in-place epoch reset touches little memory on lightly loaded
// engines; busy engines double past it once and keep the capacity.
const flowTableMinSize = 256

// flowHash mixes the tuple's fields through a splitmix64 finalizer. Any
// well-distributed hash works here — it only drives probe placement, not
// range ownership — so it deliberately does not share the shim's seeded
// lookup3.
func flowHash(t packet.FiveTuple) uint64 {
	h := uint64(t.SrcIP)<<32 | uint64(t.DstIP)
	h ^= uint64(t.SrcPort)<<48 | uint64(t.DstPort)<<32 | uint64(t.Proto)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// get returns the state slot for key, inserting a fresh one when absent.
// The returned pointer is valid until the next insertion (the engine
// finishes with it before the next packet's lookup). The load factor is
// kept at or below 3/4, so probe chains stay short.
func (t *flowTable) get(key packet.FiveTuple) (fs *flowState, inserted bool) {
	if t.last != 0 {
		if e := &t.entries[t.last-1]; e.fs.live && e.key == key {
			return &e.fs, false
		}
	}
	if t.count*4 >= len(t.entries)*3 {
		t.grow()
	}
	mask := uint64(len(t.entries) - 1)
	i := flowHash(key) & mask
	for {
		e := &t.entries[i]
		if !e.fs.live {
			e.key = key
			e.fs = flowState{live: true}
			t.count++
			t.last = int(i) + 1
			return &e.fs, true
		}
		if e.key == key {
			t.last = int(i) + 1
			return &e.fs, false
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table (or creates it) and rehashes every live entry.
func (t *flowTable) grow() {
	size := flowTableMinSize
	if len(t.entries) > 0 {
		size = len(t.entries) * 2
	}
	old := t.entries
	t.entries = make([]flowEntry, size)
	t.last = 0
	mask := uint64(size - 1)
	for oi := range old {
		if !old[oi].fs.live {
			continue
		}
		i := flowHash(old[oi].key) & mask
		for t.entries[i].fs.live {
			i = (i + 1) & mask
		}
		t.entries[i] = old[oi]
	}
}

// reset clears every slot in place, keeping the allocated capacity so the
// next epoch's flows insert without growing through the small sizes again.
func (t *flowTable) reset() {
	clear(t.entries)
	t.count = 0
	t.last = 0
}
