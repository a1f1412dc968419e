package nids

import "sort"

// ScanDetector flags sources contacting more than K distinct destination
// addresses within a measurement epoch (§2.1's Scan analysis). The zero
// value is not usable; construct with NewScanDetector.
//
// The state is two tables (see table): a presence set of (src, dst) pairs
// packed as uint64(src)<<32 | dst, and a per-source distinct-destination
// count. Observe is a short linear probe over contiguous slots and inserts
// nothing for a pair it has seen; Reset clears both tables in place,
// keeping their capacity across epochs.
type ScanDetector struct {
	// K is the alert threshold: sources with > K distinct destinations are
	// reported. K = 0 makes the detector report every observed source,
	// which is how per-node detectors are configured under aggregation
	// (§7.3) so the aggregator alone applies the real threshold.
	K int

	pairs  table[uint64, struct{}]
	counts table[uint32, int32]
}

// NewScanDetector returns a detector with threshold k.
func NewScanDetector(k int) *ScanDetector {
	return &ScanDetector{
		K:      k,
		pairs:  table[uint64, struct{}]{hash: mix64},
		counts: table[uint32, int32]{hash: srcHash},
	}
}

func srcHash(src uint32) uint64 { return mix64(uint64(src)) }

// Observe records that src contacted dst. Repeated contacts to the same
// destination count once (and cost one probe, no insertion).
func (d *ScanDetector) Observe(src, dst uint32) {
	pair := uint64(src)<<32 | uint64(dst)
	if _, inserted := d.pairs.get(pair, mix64(pair)); inserted {
		n, _ := d.counts.get(src, srcHash(src))
		*n++
	}
}

// Count returns the number of distinct destinations observed for src.
func (d *ScanDetector) Count(src uint32) int {
	n, _ := d.counts.find(src, srcHash(src))
	return int(n)
}

// NumSources returns the number of sources observed this epoch.
func (d *ScanDetector) NumSources() int { return d.counts.count }

// SourceCount pairs a source with its distinct-destination count; the
// per-source intermediate report row of the source-level split (§6).
type SourceCount struct {
	Src   uint32
	Count int
}

// Report returns sources whose distinct-destination count exceeds K,
// sorted by source for determinism.
func (d *ScanDetector) Report() []SourceCount {
	var out []SourceCount
	d.counts.each(func(src uint32, n int32) {
		if int(n) > d.K {
			out = append(out, SourceCount{Src: src, Count: int(n)})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// Tuples returns every observed (src, dst) pair, sorted, the report rows of
// the flow-level split when exactness requires full tuples (§6).
func (d *ScanDetector) Tuples() [][2]uint32 {
	var out [][2]uint32
	d.pairs.each(func(pair uint64, _ struct{}) {
		out = append(out, [2]uint32{uint32(pair >> 32), uint32(pair)})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Reset clears the epoch state in place, retaining table capacity.
func (d *ScanDetector) Reset() {
	d.pairs.reset()
	d.counts.reset()
}
