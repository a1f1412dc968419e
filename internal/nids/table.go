package nids

import "nwids/internal/packet"

// table is the engine's one open-addressing (linear-probe) hash table,
// instantiated for the flows (canonical 5-tuple → inline flowState) and for
// the scan detector's (src, dst)-pair set and per-source counts. A lookup
// touches one contiguous slot, and inserting allocates nothing once the
// table has grown to its working size.
//
// Policy: power-of-two slots, at least minSlots, doubled when the load
// reaches 3/4. Entries are never deleted one by one: reset clears the whole
// table in place at epoch rollover and keeps its capacity.
//
// Occupancy lives in a bitset beside the slots, so the zero key is an
// ordinary key and a probe that ends on an empty slot reads only the
// bitset; an empty slot holds the zero key and value.
//
// Callers pass each key's hash to get and find, so no probe makes an
// indirect call; only grow rehashes, through the hash field, which must
// agree with the callers.
type table[K comparable, V any] struct {
	slots []slot[K, V]
	occ   []uint64 // bit i set: slots[i] holds an entry
	count int
	// last memoizes the slot the previous get returned, as index+1 (0 =
	// none), for cached. Packets of one session arrive back to back, so
	// most flow lookups are one key compare: no hash, no probe. grow and
	// reset, the only events that move or drop entries, invalidate it.
	last int
	hash func(K) uint64
}

// slot holds the value before the key: a zero-size value such as the pair
// set's struct{} then takes no padding at the end of the slot.
type slot[K comparable, V any] struct {
	val V
	key K
}

// minSlots is the initial slot count (power of two). Kept small so the
// clear-in-place epoch reset touches little memory on lightly loaded
// engines; busy engines double past it once and keep the capacity.
const minSlots = 256

// mix64 is the splitmix64 finalizer, the probe hash of every table. Any
// well-distributed hash works here — it only drives probe placement, not
// range ownership — so it deliberately does not share the shim's seeded
// lookup3.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// tupleHash folds a 5-tuple into 64 bits and finalizes it with mix64.
func tupleHash(t packet.FiveTuple) uint64 {
	h := uint64(t.SrcIP)<<32 | uint64(t.DstIP)
	h ^= uint64(t.SrcPort)<<48 | uint64(t.DstPort)<<32 | uint64(t.Proto)
	return mix64(h)
}

func (t *table[K, V]) used(i uint64) bool { return t.occ[i>>6]&(1<<(i&63)) != 0 }

// cached returns the value slot of the previous get when that slot holds
// key, and nil otherwise: a hit costs one key compare and no hash.
func (t *table[K, V]) cached(key K) *V {
	if t.last != 0 {
		if s := &t.slots[t.last-1]; s.key == key {
			return &s.val
		}
	}
	return nil
}

// get returns the value slot for key (h is its hash), inserting a zero
// value when absent, and memoizes the slot for cached. The returned
// pointer is valid until the next get, which may grow the table.
func (t *table[K, V]) get(key K, h uint64) (v *V, inserted bool) {
	if t.count*4 >= len(t.slots)*3 {
		t.grow()
	}
	i, found := t.probe(key, h)
	if !found {
		t.put(i, slot[K, V]{key: key})
		t.count++
	}
	t.last = int(i) + 1
	return &t.slots[i].val, !found
}

// find returns key's value (h is its hash), or ok false when key is absent.
func (t *table[K, V]) find(key K, h uint64) (v V, ok bool) {
	if t.count == 0 {
		return v, false
	}
	i, found := t.probe(key, h)
	return t.slots[i].val, found // an empty slot's value is zero
}

// probe returns the slot holding key (h is its hash), or the empty slot
// that ends its probe sequence.
func (t *table[K, V]) probe(key K, h uint64) (i uint64, found bool) {
	mask := uint64(len(t.slots) - 1)
	for i = h & mask; t.used(i); i = (i + 1) & mask {
		if t.slots[i].key == key {
			return i, true
		}
	}
	return i, false
}

// put stores s in empty slot i.
func (t *table[K, V]) put(i uint64, s slot[K, V]) {
	t.occ[i>>6] |= 1 << (i & 63)
	t.slots[i] = s
}

// grow doubles the table (or creates it) and rehashes every entry.
func (t *table[K, V]) grow() {
	old := *t
	size := max(minSlots, 2*len(old.slots))
	t.slots, t.occ = make([]slot[K, V], size), make([]uint64, size/64)
	t.last = 0
	for oi, s := range old.slots {
		if old.used(uint64(oi)) {
			i, _ := t.probe(s.key, t.hash(s.key))
			t.put(i, s)
		}
	}
}

// each calls fn on every entry, in slot order.
func (t *table[K, V]) each(fn func(key K, val V)) {
	for i := range t.slots {
		if t.used(uint64(i)) {
			fn(t.slots[i].key, t.slots[i].val)
		}
	}
}

// reset clears every slot in place, keeping the allocated capacity so the
// next epoch inserts without growing through the small sizes again.
func (t *table[K, V]) reset() {
	clear(t.slots)
	clear(t.occ)
	t.count, t.last = 0, 0
}
