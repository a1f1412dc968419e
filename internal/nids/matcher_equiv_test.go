package nids

import (
	"bytes"
	"slices"
	"strconv"
	"testing"

	"nwids/internal/packet"
)

// referenceMatcher is the automaton ScanStreamInto replaced, kept as the
// executable spec for the differential tests below: trie-order state
// numbers, one [256]int32 row per state, a hasOut bitset and one output
// list per state, scanned one dependent step at a time.
type referenceMatcher struct {
	next   [][256]int32
	hasOut []uint64
	out    [][]int32
}

func newReferenceMatcher(patterns [][]byte) *referenceMatcher {
	out := [][]int32{nil}
	goTo := [][256]int32{{}}
	for pi, p := range patterns {
		state := int32(0)
		for _, b := range p {
			nxt := goTo[state][b]
			if nxt == 0 {
				nxt = int32(len(goTo))
				goTo = append(goTo, [256]int32{})
				out = append(out, nil)
				goTo[state][b] = nxt
			}
			state = nxt
		}
		out[state] = append(out[state], int32(pi))
	}
	n := len(goTo)
	fail := make([]int32, n)
	r := &referenceMatcher{next: make([][256]int32, n), hasOut: make([]uint64, n/64+1)}
	var queue []int32
	for b := 0; b < 256; b++ {
		s := goTo[0][b]
		r.next[0][b] = s
		if s != 0 {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out[u] = append(out[u], out[fail[u]]...)
		for b := 0; b < 256; b++ {
			v := goTo[u][b]
			if v == 0 {
				r.next[u][b] = r.next[fail[u]][b]
				continue
			}
			fail[v] = r.next[fail[u]][b]
			r.next[u][b] = v
			queue = append(queue, v)
		}
	}
	for s, list := range out {
		if len(list) > 0 {
			r.hasOut[s>>6] |= 1 << (uint(s) & 63)
		}
	}
	r.out = out
	return r
}

// referenceScan is the pre-lane ScanStreamInto loop, verbatim but for the
// padding mask.
func (r *referenceMatcher) referenceScan(state int32, data []byte, out []Match) (int32, []Match) {
	for i := 0; i < len(data); i++ {
		state = r.next[state][data[i]]
		if r.hasOut[int(state)>>6]&(1<<(uint(state)&63)) != 0 {
			for _, pi := range r.out[state] {
				out = append(out, Match{Pattern: int(pi), End: i + 1})
			}
		}
	}
	return state, out
}

// packets cuts data into consecutive packets of the given lengths; what the
// lengths do not cover is the last packet.
func packets(data []byte, lens []byte) [][]byte {
	var out [][]byte
	for _, l := range lens {
		n := min(int(l), len(data))
		out = append(out, data[:n])
		data = data[n:]
	}
	return append(out, data)
}

// matcherPair is one pattern set compiled both ways.
type matcherPair struct {
	patterns [][]byte
	m        *Matcher
	r        *referenceMatcher
}

func newMatcherPair(patterns [][]byte) matcherPair {
	return matcherPair{patterns, NewMatcher(patterns), newReferenceMatcher(patterns)}
}

// check scans data as the given packets with the state carried from one to
// the next, through the kernel and through the reference, and demands the
// same (Pattern, End) sequence from both, the same sequence from the
// brute-force oracle put in Aho-Corasick order, and states that go on to
// behave identically.
func (p matcherPair) check(t *testing.T, data []byte, lens []byte) {
	t.Helper()
	fail := func(what string, got, want []Match) {
		t.Helper()
		t.Fatalf("%s\n got %v\nwant %v\npatterns %q\ndata %q\nlens %v", what, got, want, p.patterns, data, lens)
	}
	var got, want []Match
	var ms, rs int32
	base := 0
	for _, pkt := range packets(data, lens) {
		gotFrom, wantFrom := len(got), len(want)
		ms, got = p.m.ScanStreamInto(ms, pkt, got)
		rs, want = p.r.referenceScan(rs, pkt, want)
		for i := range got[gotFrom:] {
			got[gotFrom+i].End += base
		}
		for i := range want[wantFrom:] {
			want[wantFrom+i].End += base
		}
		base += len(pkt)
	}
	if !slices.Equal(got, want) {
		fail("kernel ≠ reference", got, want)
	}
	// Aho-Corasick order is by End, longest pattern first, duplicates by index.
	naive := naiveScan(p.patterns, data)
	slices.SortFunc(naive, func(a, b Match) int {
		if a.End != b.End {
			return a.End - b.End
		}
		if la, lb := len(p.patterns[a.Pattern]), len(p.patterns[b.Pattern]); la != lb {
			return lb - la
		}
		return a.Pattern - b.Pattern
	})
	if !slices.Equal(got, naive) {
		fail("kernel ≠ naive", got, naive)
	}
	// One whole-buffer scan must land in the very state the packet-wise scan
	// did, and from there kernel and reference must report the same matches
	// over a continuation.
	whole, all := p.m.ScanStreamInto(0, data, nil)
	if whole != ms {
		t.Fatalf("whole-buffer scan ends in state %d, packet-wise scan in %d\npatterns %q\ndata %q\nlens %v", whole, ms, p.patterns, data, lens)
	}
	if !slices.Equal(all, got) {
		fail("whole-buffer scan ≠ packet-wise scan", all, got)
	}
	_, gotTail := p.m.ScanStreamInto(ms, data, nil)
	_, wantTail := p.r.referenceScan(rs, data, nil)
	if !slices.Equal(gotTail, wantTail) {
		fail("carried states diverge on a continuation", gotTail, wantTail)
	}
}

// laneStarts returns the offsets at which lanes 1–3 and the leftover tail
// start in a payload of n bytes the lane kernel takes (ScanStreamInto's
// arithmetic), for planting matches around them.
func laneStarts(n, warm int) [4]int {
	q := (n - warm) / 4
	return [4]int{q + warm, 2*q + warm, 3*q + warm, 4*q + warm}
}

// fuzzPatterns decodes the fuzzer's pattern blob: newline-separated, empty
// ones dropped, every byte folded onto an alphabet of fold letters (fold 0
// keeps raw bytes) so that overlaps and hits are common.
func fuzzPatterns(blob []byte, fold uint8) [][]byte {
	var patterns [][]byte
	for _, p := range bytes.Split(blob, []byte{'\n'}) {
		if len(p) > 0 {
			patterns = append(patterns, foldBytes(p, fold))
		}
	}
	return patterns
}

func foldBytes(b []byte, fold uint8) []byte {
	if fold == 0 {
		return b
	}
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = 'a' + c%fold
	}
	return out
}

func FuzzMatcherEquivalence(f *testing.F) {
	// Nested, overlapping, duplicate and single-byte patterns, short data.
	f.Add([]byte("he\nshe\nhis\nhers\nhe\ns"), []byte("ushershishe"), []byte{3, 0, 5}, uint8(0))
	f.Add([]byte("a\naa\naaa\nab\nba"), bytes.Repeat([]byte("aab"), 30), []byte{1, 1, 40, 2}, uint8(0))
	// Lane geometry: one long pattern (longer than a chunk near the
	// threshold) and "jklx", which starts with the long pattern's tail so
	// that the state a lane enters with right after a long match (the leaf /
	// failure-state case of the warm-up proof) decides a match one byte
	// later. Alone, they keep the lanes silent up to the boundary, so a lane
	// has to carry the long pattern across it; the second set adds short
	// patterns nested in the long one and a duplicate, which stop the
	// interleaved loop early.
	long := []byte("abcdefghijkl")
	warm := len(long) - 1
	threshold := laneMinFactor*len(long) + 1 // Matcher.laneMin for these sets
	for _, blob := range [][]byte{[]byte("abcdefghijkl\njklx"), []byte("abcdefghijkl\nijkl\nl\nfgh\nabcdefghijkl\njklx")} {
		for _, n := range []int{threshold - 1, threshold, threshold + 1, threshold + 2, threshold + 3, 5 * threshold} {
			filler := bytes.Repeat([]byte{'.'}, n)
			f.Add(blob, filler, []byte{}, uint8(0))
			if n < threshold {
				continue
			}
			for _, c := range laneStarts(n, warm) {
				// The long pattern, an 'x' behind it, ending before the
				// boundary, on it (the warm-up reads all but its first byte),
				// straddling it at every split, and starting on it.
				for end := c - 1; end <= min(c+len(long), n); end++ {
					data := bytes.Clone(filler)
					copy(data[end-len(long):], "abcdefghijklx")
					f.Add(blob, data, []byte{}, uint8(0))
					f.Add(blob, data, []byte{byte(end / 2), byte(n / 3)}, uint8(0))
				}
			}
		}
	}
	// A packet that ends on a match hands the lane kernel an emitting state,
	// which must be stepped out of but not reported again.
	f.Add([]byte("abcdefghijkl\njklx"), append([]byte("abcdefghijklx"), bytes.Repeat([]byte{'.'}, 2*threshold)...), []byte{12}, uint8(0))
	// Dense hits: a two-letter alphabet puts matches in every lane.
	f.Add([]byte("xy\nyx\nxxyy\nq"), bytes.Repeat([]byte{0, 1, 1, 0, 0, 0, 1}, 40), []byte{200, 9}, uint8(2))
	f.Fuzz(func(t *testing.T, blob, data, lens []byte, fold uint8) {
		if len(blob) > 1<<8 || len(data) > 1<<14 || len(lens) > 64 {
			t.Skip("bounded so that an execution stays around a hundred microseconds")
		}
		fold %= 5
		newMatcherPair(fuzzPatterns(blob, fold)).check(t, foldBytes(data, fold), lens)
	})
}

// TestLaneKernelEveryPlantOffset plants the default ruleset's longest
// signature and a short one at every offset of generator filler: payloads
// from the lane threshold up (each leftover-tail length), whole and cut in
// two at the plant, and the benchmark's 1400 B.
func TestLaneKernelEveryPlantOffset(t *testing.T) {
	pair := newMatcherPair(Patterns(DefaultRules()))
	long := slices.MaxFunc(pair.patterns, func(a, b []byte) int { return len(a) - len(b) })
	threshold := pair.m.laneMin()
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 1, PayloadBytes: 1400, MaliciousFraction: -1}, 5)
	filler := gen.Session(0, 1).Packets[0].Payload
	for _, n := range []int{threshold, threshold + 1, threshold + 2, threshold + 3, 1400} {
		for _, sig := range [][]byte{long, []byte("UPX!")} {
			for off := 0; off+len(sig) <= n; off++ {
				data := bytes.Clone(filler[:n])
				copy(data[off:], sig)
				pair.check(t, data, nil)
				if n < 256 {
					pair.check(t, data, []byte{byte(off)})
				}
			}
		}
	}
}

// BenchmarkScanKernel times the kernel against its own single lane and the
// reference loop per payload size, on generator filler under the default
// ruleset: sizes either side of laneMin show what the switch buys. The hit
// and dense rows are 1400 B payloads that leave the interleaved loop: one
// signature in lane 2, and a signature every four bytes.
func BenchmarkScanKernel(b *testing.B) {
	patterns := Patterns(DefaultRules())
	m, r := NewMatcher(patterns), newReferenceMatcher(patterns)
	single := func(st int32, data []byte, out []Match) (int32, []Match) { return m.scanLane(st, data, 0, out) }
	run := func(name string, payloads [][]byte, scan func(int32, []byte, []Match) (int32, []Match)) {
		b.Run(name+"/"+strconv.Itoa(len(payloads[0])), func(b *testing.B) {
			b.SetBytes(int64(len(payloads) * len(payloads[0])))
			var buf []Match
			for i := 0; i < b.N; i++ {
				for _, p := range payloads {
					_, buf = scan(0, p, buf[:0])
				}
			}
		})
	}
	filler := func(n int) [][]byte {
		gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 64, PayloadBytes: n, MaliciousFraction: -1}, 3)
		var payloads [][]byte
		for _, p := range gen.Session(0, 1).Packets {
			payloads = append(payloads, p.Payload)
		}
		return payloads
	}
	for _, n := range []int{6, 40, m.laneMin() - 1, m.laneMin(), 256, 333, 1400} {
		payloads := filler(n)
		run("kernel", payloads, m.ScanStreamInto)
		run("single", payloads, single)
		run("reference", payloads, r.referenceScan)
	}
	hit := filler(1400)
	for _, p := range hit {
		copy(p[800:], "UPX!")
	}
	run("kernel-hit", hit, m.ScanStreamInto)
	dense := [][]byte{bytes.Repeat([]byte("UPX!"), 350)}
	run("kernel-dense", dense, m.ScanStreamInto)
	run("reference-dense", dense, r.referenceScan)
}
