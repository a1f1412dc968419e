package shim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nwids/internal/packet"
)

// These are the differential tests compile.go's doc comment promises: the
// compiled integer-bound dispatch table must reproduce the seed path's
// float hash-range semantics bit for bit, on every input — including the
// 1-ulp neighborhoods around partition bounds where a rounding slip would
// silently reassign sessions between nodes.

// hashFrac64 replicates HashFraction's mapping for a raw hash value: the
// exact power-of-two scaling of float64(u) into [0, 1].
func hashFrac64(u uint64) float64 { return float64(u) / (1 << 63) / 2 }

// checkBoundEquivalence asserts the compiled contract at one (frac, u)
// point: the float comparison the seed path evaluated and the integer
// comparison the dispatch table executes must agree.
func checkBoundEquivalence(t *testing.T, frac float64, u uint64) {
	t.Helper()
	b := hashBound(frac)
	if got, want := u >= b, hashFrac64(u) >= frac; got != want {
		t.Fatalf("hashBound(%v) = %d: u=%d integer compare %v, float compare %v",
			frac, b, u, got, want)
	}
}

func TestHashBoundEdges(t *testing.T) {
	if got := hashBound(0); got != 0 {
		t.Fatalf("hashBound(0) = %d, want 0", got)
	}
	if got := hashBound(-0.25); got != 0 {
		t.Fatalf("hashBound(-0.25) = %d, want 0", got)
	}
	// frac = 1: the returned bound is the first hash whose float64 image
	// rounds up to 2^64 (and therefore compared equal to 1.0 on the seed
	// path); everything below it must still compare < 1.
	b := hashBound(1)
	if float64(b) != 0x1p64 {
		t.Fatalf("float64(hashBound(1)) = %g, want 2^64", float64(b))
	}
	if float64(b-1) >= 0x1p64 {
		t.Fatalf("float64(hashBound(1)-1) = %g, want < 2^64", float64(b-1))
	}
	// Defensive clamp: out-of-range fractions behave like 1.
	if hashBound(1.5) != b {
		t.Fatalf("hashBound(1.5) = %d, want hashBound(1) = %d", hashBound(1.5), b)
	}
}

// TestHashBoundMatchesFloatSweep probes the equivalence on a deterministic
// grid of partition-like fractions (i/n cuts, their 1-ulp neighbors, and
// seeded random fractions), at hash values bracketing each compiled bound
// and at random hashes.
func TestHashBoundMatchesFloatSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var fracs []float64
	for _, n := range []int{1, 2, 3, 7, 10, 11, 64, 997} {
		for i := 0; i <= n; i++ {
			fracs = append(fracs, float64(i)/float64(n))
		}
	}
	for i := 0; i < 200; i++ {
		fracs = append(fracs, rng.Float64())
	}
	base := len(fracs)
	for _, f := range fracs[:base] {
		fracs = append(fracs, math.Nextafter(f, 0), math.Nextafter(f, 2))
	}

	for _, frac := range fracs {
		if frac < 0 || frac > 1 {
			continue
		}
		b := hashBound(frac)
		// The bound itself must satisfy the defining property...
		if b > 0 && hashFrac64(b-1) >= frac {
			t.Fatalf("hashBound(%v) = %d not minimal: frac64(%d) = %v >= frac",
				frac, b, b-1, hashFrac64(b-1))
		}
		if hashFrac64(b) < frac {
			t.Fatalf("hashBound(%v) = %d too small: frac64 = %v < frac", frac, b, hashFrac64(b))
		}
		// ...and the comparison must agree in its neighborhood and at
		// random hashes.
		for d := uint64(0); d <= 2; d++ {
			checkBoundEquivalence(t, frac, b+d)
			if b >= d {
				checkBoundEquivalence(t, frac, b-d)
			}
		}
		for i := 0; i < 8; i++ {
			checkBoundEquivalence(t, frac, rng.Uint64())
		}
	}
}

// FuzzHashBound lets the fuzzer search for a (fraction, hash) pair where
// the integer and float comparisons disagree. `go test` runs the seed
// corpus; `go test -fuzz=FuzzHashBound` explores.
func FuzzHashBound(f *testing.F) {
	f.Add(0.0, uint64(0))
	f.Add(1.0, ^uint64(0))
	f.Add(0.5, uint64(1)<<63)
	f.Add(1.0/3, uint64(0x5555555555555555))
	f.Add(math.Nextafter(0.25, 1), uint64(1)<<62)
	f.Add(5e-324, uint64(1))
	f.Fuzz(func(t *testing.T, frac float64, u uint64) {
		if math.IsNaN(frac) || frac < 0 || frac > 1 {
			t.Skip()
		}
		b := hashBound(frac)
		if got, want := u >= b, hashFrac64(u) >= frac; got != want {
			t.Fatalf("hashBound(%v) = %d: u=%d integer compare %v, float compare %v",
				frac, b, u, got, want)
		}
	})
}

// randomConfig builds a config with nClasses classes, each carved into
// random contiguous [Lo, Hi) rules — including boundary values lifted from
// real packet hashes so exact-equality edges are exercised.
func randomConfig(rng *rand.Rand, nClasses int, boundary []float64) *Config {
	cfg := &Config{NodeID: 0, Seed: uint32(rng.Int31()), Rules: map[ClassKey][]RangeRule{}}
	for c := 0; c < nClasses; c++ {
		key := ClassKey{SrcPoP: uint8(rng.Intn(11)), DstPoP: uint8(rng.Intn(11))}
		cfg.Rules[key] = randomRules(rng, boundary)
	}
	return cfg
}

// randomRules tiles [0, 1) at random cut points (plus, half the time, one
// boundary value) and gives each tile a random Process, Replicate or no
// rule. Real configs carry only Process/Replicate rules; hash ranges owned
// by other nodes are gaps, so skips are modeled by omission.
func randomRules(rng *rand.Rand, boundary []float64) []RangeRule {
	cuts := []float64{0, 1}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		cuts = append(cuts, rng.Float64())
	}
	if len(boundary) > 0 && rng.Intn(2) == 0 {
		cuts = append(cuts, boundary[rng.Intn(len(boundary))])
	}
	sort.Float64s(cuts)
	var rules []RangeRule
	for i := 0; i+1 < len(cuts); i++ {
		switch rng.Intn(3) {
		case 0:
			rules = append(rules, RangeRule{Lo: cuts[i], Hi: cuts[i+1], Act: Process})
		case 1:
			rules = append(rules, RangeRule{Lo: cuts[i], Hi: cuts[i+1], Act: Replicate, Mirror: rng.Intn(8)})
		}
	}
	return rules
}

// retile returns a config for cfg's node, seed and classes with fresh
// random rules: the next epoch of a reconfiguration, ready to merge.
func retile(rng *rand.Rand, cfg *Config, boundary []float64) *Config {
	keys := make([]ClassKey, 0, len(cfg.Rules))
	for key := range cfg.Rules {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return classIdx(keys[i]) < classIdx(keys[j]) })
	next := &Config{NodeID: cfg.NodeID, Seed: cfg.Seed, Rules: map[ClassKey][]RangeRule{}}
	for _, key := range keys {
		next.Rules[key] = randomRules(rng, boundary)
	}
	return next
}

// randomPacket builds a packet whose PoPs land in the class space
// randomConfig draws from, in a random session direction.
func randomPacket(rng *rand.Rand) packet.Packet {
	tuple := packet.FiveTuple{
		Proto:   packet.ProtoTCP,
		SrcIP:   packet.PoPIP(rng.Intn(11), uint16(rng.Intn(1<<16))),
		DstIP:   packet.PoPIP(rng.Intn(11), uint16(rng.Intn(1<<16))),
		SrcPort: uint16(rng.Intn(1 << 16)),
		DstPort: uint16(rng.Intn(1 << 16)),
	}
	p := packet.Packet{Tuple: tuple, Dir: packet.Forward}
	if rng.Intn(2) == 1 {
		p.Tuple = tuple.Reverse()
		p.Dir = packet.Reverse
	}
	return p
}

// wantDecisions is the specification of DecideFlowInto on a config built
// by MergeConfigs(prevs[0], prevs[1]) — or on a single config when one is
// given: the deduplicated non-Skip ReferenceDecide results, in config
// order.
func wantDecisions(p packet.Packet, cfgs ...*Config) []Decision {
	var want []Decision
	for _, cfg := range cfgs {
		d := ReferenceDecide(cfg, p)
		if d.Act == Skip || (len(want) > 0 && want[0] == d) {
			continue
		}
		want = append(want, d)
	}
	return want
}

// flowPacket returns the i-th packet of a flow whose first packet is
// first: even packets travel first's direction, odd ones the reverse.
func flowPacket(first packet.Packet, i int) packet.Packet {
	if i%2 == 0 {
		return first
	}
	return packet.Packet{Tuple: first.Tuple.Reverse(), Dir: 1 - first.Dir}
}

// checkFlow decides one n-packet flow twice: once with DecideFlowInto on
// flow, once as n single-packet DecideAllInto calls on perPacket, over
// both directions. Both must return want, and the two shims' counters must
// stay equal.
func checkFlow(t *testing.T, flow, perPacket *Shim, first packet.Packet, n int, want []Decision) {
	t.Helper()
	got := flow.DecideFlowInto(first, HashTuple(first.Tuple, flow.Config().Seed), n, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecideFlowInto(%v, n=%d) = %+v, spec %+v", first.Tuple, n, got, want)
	}
	for i := 0; i < n; i++ {
		p := flowPacket(first, i)
		if single := perPacket.DecideAllInto(p, nil); !reflect.DeepEqual(single, want) {
			t.Fatalf("DecideAllInto(%v) = %+v, spec %+v", p.Tuple, single, want)
		}
	}
	if flow.Counters != perPacket.Counters {
		t.Fatalf("n=%d: counters diverged:\nflow       %+v\nper-packet %+v", n, flow.Counters, perPacket.Counters)
	}
	if !flow.Counters.Reconciled() {
		t.Fatalf("counters not reconciled: %+v", flow.Counters)
	}
}

// randomFlows draws 64 packets and the hash fractions of their tuples
// under seed, to seed rule bounds with exact packet hashes so the >= Lo /
// < Hi equalities are hit, not just straddled.
func randomFlows(rng *rand.Rand, seed uint32) (pkts []packet.Packet, boundary []float64) {
	pkts = make([]packet.Packet, 64)
	for i := range pkts {
		pkts[i] = randomPacket(rng)
		boundary = append(boundary, HashFraction(pkts[i].Tuple, seed))
	}
	return pkts, boundary
}

// TestCompiledMatchesReferenceRandom differentially tests the decision
// kernel against ReferenceDecide (the executable float-path specification)
// over random single configs: DecideFlowInto for an n-packet flow returns
// [ReferenceDecide] (nothing for Skip), and its counters equal those of n
// single-packet calls.
func TestCompiledMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		seed := uint32(rng.Int31())
		pkts, boundary := randomFlows(rng, seed)
		cfg := randomConfig(rng, 1+rng.Intn(6), boundary)
		cfg.Seed = seed
		flow, perPacket := New(cfg), New(cfg)
		for _, p := range pkts {
			checkFlow(t, flow, perPacket, p, 1+rng.Intn(7), wantDecisions(p, cfg))
		}
	}
}

// TestDecideFlowIntoMergedMatchesReference is the §9 half of the kernel's
// specification: on MergeConfigs of two random tilings sharing one seed,
// DecideFlowInto returns the deduplicated non-Skip [ReferenceDecide(prev),
// ReferenceDecide(next)], with Dual = n·(len−1) and every other counter
// equal to n single-packet calls.
func TestDecideFlowIntoMergedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var duals, dedups int
	for trial := 0; trial < 50; trial++ {
		seed := uint32(rng.Int31())
		pkts, boundary := randomFlows(rng, seed)
		prev := randomConfig(rng, 1+rng.Intn(6), boundary)
		prev.Seed = seed
		next := retile(rng, prev, boundary)
		merged, err := MergeConfigs(prev, next)
		if err != nil {
			t.Fatal(err)
		}
		flow, perPacket := New(merged), New(merged)
		for _, p := range pkts {
			n := 1 + rng.Intn(7)
			want := wantDecisions(p, prev, next)
			dual := flow.Counters.Dual
			checkFlow(t, flow, perPacket, p, n, want)
			if len(want) == 2 {
				duals++
			}
			if a, b := ReferenceDecide(prev, p), ReferenceDecide(next, p); a.Act != Skip && a == b {
				dedups++
			}
			if wantDual := uint64(n * max(len(want)-1, 0)); flow.Counters.Dual-dual != wantDual {
				t.Fatalf("n=%d, %d decisions: Dual advanced %d, want %d", n, len(want), flow.Counters.Dual-dual, wantDual)
			}
		}
	}
	if duals == 0 || dedups == 0 {
		t.Fatalf("vacuous: %d two-decision flows, %d deduplicated ones", duals, dedups)
	}
}

// TestHotPathAllocFree pins the zero-allocation contract of the shim's
// per-packet entry points (DecideFlowInto and its two wrappers) with
// testing.AllocsPerRun. The shim runs a merged transition config, so the
// two-decision path is measured too.
func TestHotPathAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := randomConfig(rng, 8, nil)
	merged, err := MergeConfigs(cfg, retile(rng, cfg, nil))
	if err != nil {
		t.Fatal(err)
	}
	s := New(merged)
	pkts := make([]packet.Packet, 32)
	hashes := make([]uint64, len(pkts))
	for i := range pkts {
		pkts[i] = randomPacket(rng)
		hashes[i] = HashTuple(pkts[i].Tuple, cfg.Seed)
	}
	decBuf := make([]Decision, 0, 2*len(pkts))

	cases := []struct {
		name string
		fn   func()
	}{
		{"DecideFlowInto", func() {
			decBuf = decBuf[:0]
			for i, p := range pkts {
				decBuf = s.DecideFlowInto(p, hashes[i], 4, decBuf)
			}
		}},
		{"DecideFlow", func() {
			for i, p := range pkts {
				s.DecideFlow(p, hashes[i], 4)
			}
		}},
		{"DecideAllInto", func() {
			for _, p := range pkts {
				decBuf = s.DecideAllInto(p, decBuf[:0])
			}
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm any lazily-sized buffer before measuring
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/run, want 0", tc.name, allocs)
		}
	}
}
