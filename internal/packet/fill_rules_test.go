package packet_test

import (
	"math"
	"testing"

	"nwids/internal/nids"
	"nwids/internal/packet"
)

// TestFillAccidentalMatchRate bounds how often benign filler matches a
// shipped rule by chance. A pattern made only of filler symbols starts at a
// given position with probability the product of its symbols'
// probabilities; summed over DefaultRules, that rate under fillSym's
// 7/256 and 6/256 must not exceed the rate under uniform 1/40 symbols.
func TestFillAccidentalMatchRate(t *testing.T) {
	p := map[byte]float64{}
	for _, c := range packet.FillSym {
		p[c] += 1.0 / 256
	}
	var table, uniform float64
	matchable := 0
	for _, r := range nids.DefaultRules() {
		rate := 1.0
		for _, c := range []byte(r.Pattern) {
			rate *= p[c] // 0 for a byte filler never holds
		}
		if rate == 0 {
			continue
		}
		matchable++
		table += rate
		uniform += math.Pow(1.0/40, float64(len(r.Pattern)))
		t.Logf("%-24q %.3g per position (uniform %.3g)", r.Pattern, rate, math.Pow(1.0/40, float64(len(r.Pattern))))
	}
	if matchable == 0 {
		t.Fatal("no DefaultRules pattern is made of filler symbols; the bound checks nothing")
	}
	if table > uniform {
		t.Fatalf("accidental match rate %.3g per position over %d patterns, above the uniform %.3g", table, matchable, uniform)
	}
}
