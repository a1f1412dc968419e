package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// pivotPin is the observable trace of one LP solve: the path the simplex
// took (pivot, flip, degenerate-step and refactorization counts) and the
// bit patterns it ended on. The constants below were recorded at commit
// 0874a89, before the sparse factorization and row-wise pivot-row kernels
// replaced the dense ones; those kernels promise the same floating-point
// operations in the same order, and this file is where that promise is a
// test. A change that reorders any sum in internal/lp moves these numbers
// and has to re-record them deliberately.
type pivotPin struct {
	phase1, phase2, flips, degenerate, refactors, maxEta int
	objBits                                              uint64
	// pointHash is FNV-1a over the bit pattern of every action fraction and
	// node load of the extracted assignment.
	pointHash uint64
}

func pinOf(a *Assignment) pivotPin {
	st := a.LPStats
	h := fnv.New64a()
	put := func(v float64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, acts := range a.Actions {
		for _, act := range acts {
			put(act.Frac)
		}
	}
	for _, loads := range a.NodeLoad {
		for _, v := range loads {
			put(v)
		}
	}
	return pivotPin{
		phase1: st.Phase1Pivots, phase2: st.Phase2Pivots, flips: st.BoundFlips,
		degenerate: st.DegenerateSteps, refactors: st.Refactorizations, maxEta: st.MaxEtaAtRefactor,
		objBits: math.Float64bits(a.Objective), pointHash: h.Sum64(),
	}
}

func checkPin(t *testing.T, what string, got, want pivotPin) {
	t.Helper()
	if got != want {
		t.Errorf("%s: pivot path moved\n got  %#v (objective %.17g)\n want %#v (objective %.17g)",
			what, got, math.Float64frombits(got.objBits), want, math.Float64frombits(want.objBits))
	}
}

// skipUnlessAMD64 keeps the bit-level pins to the architecture they were
// recorded on: compilers for arm64, ppc64le, s390x and riscv64 fuse x*y+z
// into one rounding, which legitimately changes low-order bits and, on
// degenerate LPs, the pivot path.
func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("pivot-path pins were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

func pinScenario(t *testing.T, topo string) *Scenario {
	t.Helper()
	g := topology.ByName(topo)
	if g == nil {
		t.Fatalf("unknown topology %s", topo)
	}
	return NewScenario(g, traffic.GravityDefault(g), ScenarioOptions{})
}

var pinReplCfg = ReplicationConfig{Mirror: MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10}

func TestPivotPathPinned(t *testing.T) {
	skipUnlessAMD64(t)
	repl := map[string]pivotPin{
		"Internet2": {phase2: 121, degenerate: 23, refactors: 3, maxEta: 96,
			objBits: 0x3fca11b1b05a3ea4, pointHash: 0x87da9d4fc3bd486e}, // 0.20366498099291619
		"Geant": {phase2: 318, flips: 1, degenerate: 33, refactors: 5, maxEta: 96,
			objBits: 0x3fcb2ea2b725f642, pointHash: 0x166d46b1ccd8961}, // 0.21236070578372518
	}
	for _, topo := range []string{"Internet2", "Geant"} {
		a, err := SolveReplication(pinScenario(t, topo), pinReplCfg)
		if err != nil {
			t.Fatalf("%s replication: %v", topo, err)
		}
		checkPin(t, topo+" replication", pinOf(a), repl[topo])
	}
	res, err := SolveAggregation(pinScenario(t, "Geant"), AggregationConfig{Beta: 1})
	if err != nil {
		t.Fatalf("Geant aggregation: %v", err)
	}
	checkPin(t, "Geant aggregation", pinOf(res.Assignment), pivotPin{
		phase2: 150, flips: 3, degenerate: 15, refactors: 3, maxEta: 96,
		objBits: 0x3fe382e3af22d35e, pointHash: 0x4bee9380cbafb3cf, // 0.6097277088762032
	})
}

// TestWarmChainPinned drives a fixed-seed chain of traffic matrices through
// one ReplicationSolver. Every SetScenario rewrites coefficients through
// lp.Problem.UpdateCoef, so a row-wise copy of the matrix that went stale
// would price the pivot row against the previous matrix: the devex weights,
// hence the pivot counts, would leave the recorded path. Each step is also
// checked against a cold solve of the same scenario.
func TestWarmChainPinned(t *testing.T) {
	skipUnlessAMD64(t)
	want := []pivotPin{
		{phase2: 414, flips: 1, degenerate: 66, refactors: 6, maxEta: 96, objBits: 0x3fd0702bb732c611, pointHash: 0xf112a32336ab4ad7},
		{phase1: 66, phase2: 54, degenerate: 33, refactors: 3, maxEta: 96, objBits: 0x3fcb98843196a05f, pointHash: 0x65c3b1f2c7395620},
		{phase1: 27, phase2: 11, degenerate: 5, refactors: 2, maxEta: 38, objBits: 0x3fcd32646799236d, pointHash: 0x7bf565de4318a03b},
		{phase1: 33, phase2: 22, degenerate: 10, refactors: 2, maxEta: 55, objBits: 0x3fcd7b876035b24e, pointHash: 0x74300d1d332a52a3},
		{phase1: 55, phase2: 18, flips: 2, degenerate: 22, refactors: 2, maxEta: 73, objBits: 0x3fce0661a61c03cc, pointHash: 0xd3429e1eae940982},
		{phase1: 39, phase2: 16, degenerate: 9, refactors: 2, maxEta: 55, objBits: 0x3fcbbfec109fb868, pointHash: 0x52c84ea1fb0b0aeb},
	}
	s := pinScenario(t, "Geant")
	rs, err := NewReplicationSolver(s, pinReplCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	tms := traffic.VariabilityModel{Sigma: 0.5}.Generate(rng, traffic.GravityDefault(s.Graph), len(want))
	warmHits := 0
	for i, tm := range tms {
		sv := s.WithMatrix(tm)
		if err := rs.SetScenario(sv); err != nil {
			t.Fatalf("step %d: SetScenario: %v", i, err)
		}
		warm, err := rs.Solve()
		if err != nil {
			t.Fatalf("step %d warm: %v", i, err)
		}
		warmHits += warm.LPStats.WarmStartHits
		checkPin(t, fmt.Sprintf("Geant warm step %d", i), pinOf(warm), want[i])
		cold, err := SolveReplication(sv, pinReplCfg)
		if err != nil {
			t.Fatalf("step %d cold: %v", i, err)
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
			t.Errorf("step %d: warm objective %.17g vs cold %.17g (diff %.3g)", i, warm.Objective, cold.Objective, d)
		}
	}
	if warmHits == 0 {
		t.Error("no step of the chain warm-started: the pins would not exercise UpdateCoef + WarmStart")
	}
}
