package emulation

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"nwids/internal/controller"
	"nwids/internal/core"
	"nwids/internal/shim"
)

// referenceChurn is RunDrift's churn accounting as it was before the
// per-class log: a pass over every remaining session of the whole trace,
// class counts in a map, the expectation summed over the counted classes
// in sorted-key order. classLog.churn must agree with it bit for bit.
func referenceChurn(keys []shim.ClassKey, fracs []float64, injected int,
	oldParts, newParts map[shim.ClassKey][]shim.OwnedRange) (moved, remaining int, expected float64) {
	classCount := map[shim.ClassKey]int{}
	for i := injected; i < len(keys); i++ {
		remaining++
		key, h := keys[i], fracs[i]
		classCount[key]++
		if o := rangeOwner(oldParts[key], h); o >= 0 && o != rangeOwner(newParts[key], h) {
			moved++
		}
	}
	countKeys := make([]shim.ClassKey, 0, len(classCount))
	for key := range classCount {
		countKeys = append(countKeys, key)
	}
	sort.Slice(countKeys, func(i, j int) bool {
		if countKeys[i].SrcPoP != countKeys[j].SrcPoP {
			return countKeys[i].SrcPoP < countKeys[j].SrcPoP
		}
		return countKeys[i].DstPoP < countKeys[j].DstPoP
	})
	for _, key := range countKeys {
		expected += controller.OwnerChurn(oldParts[key], newParts[key]) * float64(classCount[key])
	}
	return moved, remaining, expected
}

// randomTarget draws a fractional assignment over one to four owners among
// nodes nodes, some of them replicated through a path node.
func randomTarget(rng *rand.Rand, nodes int) []core.ActionFrac {
	var t []core.ActionFrac
	for k := 1 + rng.Intn(4); k > 0; k-- {
		via := -1
		if rng.Intn(3) == 0 {
			via = rng.Intn(nodes)
		}
		t = append(t, core.ActionFrac{Node: rng.Intn(nodes), Via: via, Frac: 0.05 + rng.Float64()})
	}
	return t
}

// churnCase is one trace and one reconfiguration of it.
type churnCase struct {
	name          string
	nPoP          int
	keys          []shim.ClassKey
	fracs         []float64
	oldP, newP    map[shim.ClassKey][]shim.OwnedRange
	injectedAt    []int
	wantSomeMoved bool
}

// randomChurnCase builds a trace over nPoP² classes and a reconfiguration
// planned by planner from random targets. Some classes keep their
// partition (an equal copy), some are missing from the new partitions,
// some from the old, and some hashes sit at or above the last range's Hi.
func randomChurnCase(rng *rand.Rand, name string, nPoP, sessions int, planner controller.Planner) churnCase {
	c := churnCase{name: name, nPoP: nPoP,
		oldP: map[shim.ClassKey][]shim.OwnedRange{}, newP: map[shim.ClassKey][]shim.OwnedRange{}}
	for s := 0; s < nPoP; s++ {
		for d := 0; d < nPoP; d++ {
			key := shim.ClassKey{SrcPoP: uint8(s), DstPoP: uint8(d)}
			var old []shim.OwnedRange
			if rng.Intn(10) != 0 {
				old = shim.PartitionClass(randomTarget(rng, nPoP))
				c.oldP[key] = old
			}
			switch rng.Intn(6) {
			case 0: // missing from the new partitions
			case 1: // unchanged
				if old != nil {
					c.newP[key] = append([]shim.OwnedRange(nil), old...)
				}
			default:
				c.newP[key] = planner.PlanClass(old, randomTarget(rng, nPoP))
			}
		}
	}
	for i := 0; i < sessions; i++ {
		c.keys = append(c.keys, shim.ClassKey{SrcPoP: uint8(rng.Intn(nPoP)), DstPoP: uint8(rng.Intn(nPoP))})
		h := rng.Float64()
		switch rng.Intn(50) {
		case 0:
			h = 1 // HashFraction rounds the top hashes up to 1: above every Hi
		case 1:
			h = math.Nextafter(1, 0)
		case 2:
			h = 0
		}
		c.fracs = append(c.fracs, h)
	}
	c.injectedAt = []int{0, 1, sessions / 3, sessions / 2, sessions - 1, sessions, rng.Intn(sessions + 1)}
	c.wantSomeMoved = true
	return c
}

// TestClassLogChurnMatchesReference checks the per-class churn pass against
// the per-session reference on random partitions from both planners, on
// partitions whose last range stops short of 1, and on identical
// partitions, at injection points from the start of the trace to its end.
func TestClassLogChurnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var cases []churnCase
	for i := 0; i < 6; i++ {
		cases = append(cases,
			randomChurnCase(rng, "churn-min", 3+i, 400+150*i, controller.ChurnMinPlanner{}),
			randomChurnCase(rng, "naive", 3+i, 400+150*i, controller.NaivePlanner{}))
	}

	// Hand-made partitions that stop short of 1, so hashes above the last
	// Hi have no owner on either side or only on the old one.
	short := randomChurnCase(rng, "short-hi", 4, 900, controller.NaivePlanner{})
	for key := range short.oldP {
		short.oldP[key] = []shim.OwnedRange{{Lo: 0, Hi: 0.4, Node: 0, Via: -1}, {Lo: 0.4, Hi: 0.9, Node: 1, Via: -1}}
	}
	for key := range short.newP {
		short.newP[key] = []shim.OwnedRange{{Lo: 0, Hi: 0.5, Node: 1, Via: -1}, {Lo: 0.5, Hi: 0.8, Node: 0, Via: -1}}
	}
	cases = append(cases, short)

	same := randomChurnCase(rng, "identical", 5, 700, controller.ChurnMinPlanner{})
	same.newP = same.oldP
	same.wantSomeMoved = false
	cases = append(cases, same)

	for ci, c := range cases {
		cl := newClassLog(c.nPoP)
		for i, key := range c.keys {
			cl.add(int(key.SrcPoP)*c.nPoP+int(key.DstPoP), i, c.fracs[i])
		}
		anyMoved := false
		for _, inj := range c.injectedAt {
			wm, wr, we := referenceChurn(c.keys, c.fracs, inj, c.oldP, c.newP)
			gm, gr, ge := cl.churn(inj, c.oldP, c.newP)
			if gm != wm || gr != wr || math.Float64bits(ge) != math.Float64bits(we) {
				t.Errorf("case %d (%s) injected %d: got moved %d remaining %d expected %v (%#x); want %d %d %v (%#x)",
					ci, c.name, inj, gm, gr, ge, math.Float64bits(ge), wm, wr, we, math.Float64bits(we))
			}
			anyMoved = anyMoved || wm > 0
		}
		if anyMoved != c.wantSomeMoved {
			t.Errorf("case %d (%s): some session moved = %v, want %v", ci, c.name, anyMoved, c.wantSomeMoved)
		}
	}
}

// TestClassLogChurnMissingClassMoves: a class with old ranges and no new
// partition moves every remaining session it owned, as rangeOwner(nil, h)
// is -1; its hash-measure churn is 0 by OwnerChurn's convention.
func TestClassLogChurnMissingClassMoves(t *testing.T) {
	key := shim.ClassKey{SrcPoP: 1, DstPoP: 0}
	oldP := map[shim.ClassKey][]shim.OwnedRange{key: {{Lo: 0, Hi: 0.5, Node: 0, Via: -1}, {Lo: 0.5, Hi: 1, Node: 1, Via: -1}}}
	cl := newClassLog(2)
	for i, h := range []float64{0.1, 0.7, 1, 0.3} {
		cl.add(2, i, h) // class 1·2+0
	}
	moved, remaining, expected := cl.churn(1, oldP, map[shim.ClassKey][]shim.OwnedRange{})
	if moved != 2 || remaining != 3 || expected != 0 {
		t.Errorf("moved %d, remaining %d, expected %v; want 2, 3, 0", moved, remaining, expected)
	}
}
