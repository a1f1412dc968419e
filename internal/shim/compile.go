package shim

import (
	"sort"

	"nwids/internal/packet"
)

// This file compiles a Config's per-class hash-range rules into a dense
// dispatch table the per-packet hot path executes without map lookups or
// float comparisons. The seed path evaluated, per packet,
//
//	HashFraction(t, seed) >= r.Lo && HashFraction(t, seed) < r.Hi
//
// where HashFraction is float64(HashTuple(t, seed)) scaled by 2^-64. The
// scaling is an exact power-of-two operation, so the float comparison is a
// pure function of the rounded hash value: for any bound b in [0, 1] there
// is a unique smallest uint64 whose float64 rounding reaches b*2^64, and
// the rule matches exactly the hashes in [hashBound(Lo), hashBound(Hi)).
// Compiling those integer bounds once per SetConfig turns the per-packet
// work into one uint64 compare pair per rule — byte-identical decisions,
// no floats on the hot path (the differential fuzz tests in
// compile_test.go pin the equivalence over the full uint64 range).

// compiledRule is one hash-range rule with exact integer bounds.
type compiledRule struct {
	lo, hi uint64
	mirror int32
	act    Action
}

// compiled is a Config lowered to class-indexed CSR form: the rules of
// class index i (SrcPoP<<8 | DstPoP) occupy rules[off[i]:off[i+1]], in the
// Config's original per-class slice order, so the decisions every matching
// rule contributes under overlapping (merged transition) rules come out in
// rule order. present marks classes that exist in the Config's rule map
// even when empty, keeping the NoClass counter semantics of the map-based
// path.
type compiled struct {
	seed    uint32
	off     []int32
	rules   []compiledRule
	present []uint64
}

// classIdx flattens a class key into the dispatch table index.
func classIdx(k ClassKey) int { return int(k.SrcPoP)<<8 | int(k.DstPoP) }

// hasClass reports whether the class index is present in the source Config.
func (c *compiled) hasClass(i int) bool {
	return i>>6 < len(c.present) && c.present[i>>6]&(1<<(uint(i)&63)) != 0
}

// hashBound returns the smallest uint64 hash value h with
// float64(h) >= frac*2^64 — the exact integer image of the float bound
// under HashFraction's rounding. frac <= 0 maps to 0; frac = 1 maps to the
// first hash that rounds up to 2^64 (those top hashes compare equal to 1.0
// and therefore fell outside every [Lo, 1) range on the seed path too).
func hashBound(frac float64) uint64 {
	if frac <= 0 {
		return 0
	}
	t := frac * 0x1p64 // exact: power-of-two scaling of a non-negative float
	if t > 0x1p64 {
		t = 0x1p64 // frac > 1 never occurs in a valid partition; clamp defensively
	}
	// float64(u) is monotone non-decreasing in u and float64(MaxUint64) is
	// 2^64 >= t, so the least u with float64(u) >= t exists; binary search.
	lo, hi := uint64(0), ^uint64(0)
	for lo < hi {
		mid := lo + (hi-lo)>>1
		if float64(mid) >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// compileConfig lowers cfg into its dispatch table. Classes are laid out by
// ascending index; within a class the Config's rule order is kept verbatim.
func compileConfig(cfg *Config) *compiled {
	c := &compiled{seed: cfg.Seed}
	maxIdx := -1
	keys := make([]ClassKey, 0, len(cfg.Rules))
	for key := range cfg.Rules {
		keys = append(keys, key)
		if i := classIdx(key); i > maxIdx {
			maxIdx = i
		}
	}
	sort.Slice(keys, func(a, b int) bool { return classIdx(keys[a]) < classIdx(keys[b]) })
	c.off = make([]int32, maxIdx+2)
	if maxIdx >= 0 {
		c.present = make([]uint64, maxIdx>>6+1)
	}
	for _, key := range keys {
		i := classIdx(key)
		c.present[i>>6] |= 1 << (uint(i) & 63)
		c.off[i+1] += int32(len(cfg.Rules[key]))
	}
	for i := 1; i < len(c.off); i++ {
		c.off[i] += c.off[i-1]
	}
	c.rules = make([]compiledRule, c.off[len(c.off)-1])
	for _, key := range keys {
		at := c.off[classIdx(key)]
		for ri, r := range cfg.Rules[key] {
			c.rules[at+int32(ri)] = compiledRule{
				lo:     hashBound(r.Lo),
				hi:     hashBound(r.Hi),
				mirror: int32(r.Mirror),
				act:    r.Act,
			}
		}
	}
	return c
}

// ReferenceDecide executes cfg on p exactly the way the pre-compiled shim
// did: a class-key map lookup followed by a float hash-range scan. It is
// the executable specification the compiled dispatch table is
// differentially tested and benchmarked against; production code should
// use Shim.DecideFlowInto, whose single-configuration result is this
// decision (empty for Skip).
func ReferenceDecide(cfg *Config, p packet.Packet) Decision {
	rules, ok := cfg.Rules[KeyForPacket(p)]
	if !ok {
		return Decision{Act: Skip}
	}
	h := HashFraction(p.Tuple, cfg.Seed)
	for _, r := range rules {
		if h >= r.Lo && h < r.Hi {
			return Decision{Act: r.Act, Mirror: r.Mirror}
		}
	}
	return Decision{Act: Skip}
}
