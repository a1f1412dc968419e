package core

import (
	"math"
	"math/rand"
	"testing"

	"nwids/internal/obs"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

func internet2Scenario(t testing.TB) *Scenario {
	t.Helper()
	g := topology.Internet2()
	return NewScenario(g, traffic.GravityDefault(g), ScenarioOptions{})
}

// twoNodeScenario builds the smallest hand-checkable scenario: A—B with a
// single class A→B of 100 sessions.
func twoNodeScenario(t testing.TB) *Scenario {
	t.Helper()
	g := topology.New("pair")
	a := g.AddNode("A", 1)
	b := g.AddNode("B", 1)
	g.AddLink(a, b)
	tm := traffic.NewMatrix(2)
	tm.Sessions[a][b] = 100
	return NewScenario(g, tm, ScenarioOptions{})
}

func TestScenarioCalibration(t *testing.T) {
	s := internet2Scenario(t)
	if got := s.MaxIngressLoad(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("ingress-only max load = %g, want 1 by construction", got)
	}
	if got := s.MaxBG(); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("max background load = %g, want 1/3", got)
	}
	if len(s.Classes) != 110 {
		t.Fatalf("classes = %d, want 110", len(s.Classes))
	}
	if math.Abs(s.TotalSessions()-8e6) > 1 {
		t.Fatalf("total sessions = %g", s.TotalSessions())
	}
}

func TestScenarioWithMatrixKeepsProvisioning(t *testing.T) {
	s := internet2Scenario(t)
	tm2 := traffic.Gravity(s.Graph, 16e6) // double the traffic
	s2 := s.WithMatrix(tm2)
	if &s2.NodeCap[0][0] != &s.NodeCap[0][0] {
		t.Fatal("WithMatrix must share provisioned capacities")
	}
	if got := s2.MaxIngressLoad(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("doubled traffic should double ingress load, got %g", got)
	}
	if got := s2.MaxBG(); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("doubled traffic should double BG, got %g", got)
	}
}

func TestIngressAssignment(t *testing.T) {
	s := internet2Scenario(t)
	a := Ingress(s)
	if got := a.MaxLoad(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("ingress max load = %g, want 1", got)
	}
	if err := a.CoverageError(); err > 1e-9 {
		t.Fatalf("ingress coverage error = %g", err)
	}
	if a.HasDC {
		t.Fatal("ingress deployment has no DC")
	}
	// No replication → link loads are exactly background.
	for l, v := range a.LinkLoad {
		if math.Abs(v-s.BG[l]) > 1e-12 {
			t.Fatalf("link %d load %g ≠ BG %g", l, v, s.BG[l])
		}
	}
}

func TestOnPathTwoNodes(t *testing.T) {
	s := twoNodeScenario(t)
	a, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorNone})
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes on the path, equal capacity: optimal split is 50/50.
	if got := a.MaxLoad(); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("on-path max load = %g, want 0.5", got)
	}
	if err := a.CoverageError(); err > 1e-6 {
		t.Fatalf("coverage error %g", err)
	}
}

func TestReplicationOrderingInternet2(t *testing.T) {
	s := internet2Scenario(t)
	ing := Ingress(s)
	noRep, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorNone})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline ordering (Fig 13): replicate < on-path < ingress.
	if !(rep.MaxLoad() < noRep.MaxLoad() && noRep.MaxLoad() < ing.MaxLoad()) {
		t.Fatalf("ordering violated: rep=%.4f onpath=%.4f ingress=%.4f",
			rep.MaxLoad(), noRep.MaxLoad(), ing.MaxLoad())
	}
	if rep.MaxLoad() > 0.5*ing.MaxLoad() {
		t.Fatalf("replication should at least halve the max load, got %.4f", rep.MaxLoad())
	}
	for _, a := range []*Assignment{noRep, rep} {
		if err := a.CoverageError(); err > 1e-6 {
			t.Fatalf("coverage error %g", err)
		}
	}
	if !rep.HasDC || rep.DCAttach < 0 {
		t.Fatal("replicated assignment should have a placed DC")
	}
	if rep.NumNIDS() != 12 {
		t.Fatalf("NumNIDS = %d, want 12", rep.NumNIDS())
	}
}

func TestReplicationRespectsLinkBudget(t *testing.T) {
	s := internet2Scenario(t)
	const mll = 0.4
	a, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorDCOnly, MaxLinkLoad: mll, DCCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	for l, v := range a.LinkLoad {
		limit := math.Max(mll, s.BG[l])
		if v > limit+1e-6 {
			t.Fatalf("link %d load %.4f exceeds budget %.4f", l, v, limit)
		}
	}
}

func TestReplicationTightLinkBudget(t *testing.T) {
	s := internet2Scenario(t)
	// With a zero replication budget, no replicated traffic may cross any
	// link — but the attachment PoP can still offload to its co-located DC
	// for free, so the optimum sits between full replication and on-path.
	tight, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorDCOnly, MaxLinkLoad: 1e-9, DCCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	noRep, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorNone})
	if err != nil {
		t.Fatal(err)
	}
	if tight.MaxLoad() > noRep.MaxLoad()+1e-6 {
		t.Fatalf("tight budget %.6f must not be worse than on-path %.6f", tight.MaxLoad(), noRep.MaxLoad())
	}
	// No replicated traffic on any link: loads stay at background.
	for l, v := range tight.LinkLoad {
		if math.Abs(v-s.BG[l]) > 1e-9 {
			t.Fatalf("link %d carries replication (%.6f vs BG %.6f) despite zero budget", l, v, s.BG[l])
		}
	}
	// Every offload action originates at the attachment PoP itself.
	for c := range tight.Actions {
		for _, act := range tight.Actions[c] {
			if act.Via >= 0 && act.Via != tight.DCAttach {
				t.Fatalf("class %d replicated from %d, only %d (attach) is free", c, act.Via, tight.DCAttach)
			}
		}
	}
}

func TestReplicationMoreBudgetNeverHurts(t *testing.T) {
	s := internet2Scenario(t)
	prev := math.Inf(1)
	for _, mll := range []float64{0.05, 0.2, 0.4, 0.8} {
		a, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorDCOnly, MaxLinkLoad: mll, DCCapacity: 10})
		if err != nil {
			t.Fatal(err)
		}
		if a.MaxLoad() > prev+1e-6 {
			t.Fatalf("max load increased with budget: %.4f → %.4f at MLL=%.2f", prev, a.MaxLoad(), mll)
		}
		prev = a.MaxLoad()
	}
}

func TestLocalOffloadOneTwoHop(t *testing.T) {
	s := internet2Scenario(t)
	noRep, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorNone})
	if err != nil {
		t.Fatal(err)
	}
	one, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorOneHop, MaxLinkLoad: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	two, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorTwoHop, MaxLinkLoad: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// Fig 14: one-hop improves on pure on-path; two-hop at least matches one-hop.
	if one.MaxLoad() >= noRep.MaxLoad() {
		t.Fatalf("one-hop %.4f should beat on-path %.4f", one.MaxLoad(), noRep.MaxLoad())
	}
	if two.MaxLoad() > one.MaxLoad()+1e-6 {
		t.Fatalf("two-hop %.4f worse than one-hop %.4f", two.MaxLoad(), one.MaxLoad())
	}
	if one.HasDC || two.HasDC {
		t.Fatal("local offload deploys no DC")
	}
}

func TestPathAugmented(t *testing.T) {
	s := internet2Scenario(t)
	n := float64(s.Graph.NumNodes())
	aug, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorNone, ExtraNodeCapacity: 10 / n})
	if err != nil {
		t.Fatal(err)
	}
	noRep, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorNone})
	if err != nil {
		t.Fatal(err)
	}
	want := noRep.MaxLoad() / (1 + 10/n)
	if d := math.Abs(aug.MaxLoad() - want); d > 1e-6 {
		t.Fatalf("augmented load %.6f, want scaled on-path %.6f", aug.MaxLoad(), want)
	}
}

func TestDCPlacementStrategies(t *testing.T) {
	s := internet2Scenario(t)
	seen := map[int]bool{}
	for _, st := range PlacementStrategies() {
		loc := Place(s, st)
		if loc < 0 || loc >= s.Graph.NumNodes() {
			t.Fatalf("%v placed out of range: %d", st, loc)
		}
		seen[loc] = true
		if st.String() == "unknown-placement" {
			t.Fatalf("strategy %d has no name", st)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no placements")
	}
}

func TestReplicationFixedAttachment(t *testing.T) {
	s := internet2Scenario(t)
	a, err := SolveReplication(s, ReplicationConfig{
		Mirror: MirrorDCOnly, DCAttach: 3, DCAttachFixed: true, MaxLinkLoad: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.DCAttach != 3 {
		t.Fatalf("DCAttach = %d, want 3", a.DCAttach)
	}
}

func TestAggregationBetaTradeoff(t *testing.T) {
	s := internet2Scenario(t)
	// β = 0: pure min-max load, pays communication freely.
	free, err := SolveAggregation(s, AggregationConfig{Beta: 0})
	if err != nil {
		t.Fatal(err)
	}
	// β huge: communication dominates → everything at the ingress.
	expensive, err := SolveAggregation(s, AggregationConfig{Beta: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if free.LoadCost >= expensive.LoadCost {
		t.Fatalf("β=0 load %.4f should be below β=∞ load %.4f", free.LoadCost, expensive.LoadCost)
	}
	if free.CommCost <= expensive.CommCost {
		t.Fatalf("β=0 comm %.4g should exceed β=∞ comm %.4g", free.CommCost, expensive.CommCost)
	}
	if expensive.CommCost > 1e-6 {
		t.Fatalf("β=∞ should drive comm cost to 0, got %g", expensive.CommCost)
	}
	if d := math.Abs(expensive.LoadCost - 1); d > 1e-6 {
		t.Fatalf("β=∞ load should equal ingress-only 1.0, got %.6f", expensive.LoadCost)
	}
	if err := free.Assignment.CoverageError(); err > 1e-6 {
		t.Fatalf("aggregation coverage error %g", err)
	}
}

func TestAggregationImbalanceImproves(t *testing.T) {
	s := internet2Scenario(t)
	agg, err := SolveAggregation(s, AggregationConfig{Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	none := IngressAggregation(s)
	ratioWith := agg.Assignment.MaxLoad() / agg.Assignment.AvgLoad()
	ratioWithout := none.Assignment.MaxLoad() / none.Assignment.AvgLoad()
	if ratioWith >= ratioWithout {
		t.Fatalf("aggregation should reduce imbalance: %.3f vs %.3f", ratioWith, ratioWithout)
	}
}

func symmetricAsym(s *Scenario) *topology.AsymmetricRoutes {
	// Build a "fully symmetric" configuration by hand: reverse = reverse(fwd).
	ar := &topology.AsymmetricRoutes{}
	n := s.Graph.NumNodes()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			f := s.Routing.Path(a, b)
			ar.Pairs = append(ar.Pairs, [2]int{a, b})
			ar.Fwd = append(ar.Fwd, f)
			ar.Rev = append(ar.Rev, f.Reverse())
		}
	}
	ar.MeanOverlap = 1
	return ar
}

func TestSplitSymmetricRoutesFullCoverage(t *testing.T) {
	s := internet2Scenario(t)
	classes := BuildSplitClasses(s, symmetricAsym(s))
	if len(classes) != 110 {
		t.Fatalf("classes = %d", len(classes))
	}
	res, err := SolveSplit(s, classes, SplitConfig{UseDC: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissRate > 1e-6 {
		t.Fatalf("symmetric routes should have zero miss, got %.4f", res.MissRate)
	}
	ing := IngressSplit(s, classes)
	if ing.MissRate > 1e-9 {
		t.Fatalf("ingress miss under symmetric routes = %g", ing.MissRate)
	}
	if d := math.Abs(ing.MaxLoad - 1); d > 1e-9 {
		t.Fatalf("ingress max load = %g, want 1", ing.MaxLoad)
	}
}

func TestSplitAsymmetricNeedsDC(t *testing.T) {
	s := internet2Scenario(t)
	rng := rand.New(rand.NewSource(11))
	pool := topology.NewPathPool(s.Routing)
	ar := topology.GenerateAsymmetric(s.Routing, pool, 0.1, rng)
	classes := BuildSplitClasses(s, ar)

	ing := IngressSplit(s, classes)
	path, err := SolveSplit(s, classes, SplitConfig{UseDC: false})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := SolveSplit(s, classes, SplitConfig{UseDC: true, MaxLinkLoad: 0.4, DCCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Fig 16 shape at low overlap: ingress misses most traffic, on-path
	// misses less, the DC architecture drives misses toward zero.
	if ing.MissRate < 0.5 {
		t.Fatalf("ingress miss at θ=0.1 = %.3f, expected high", ing.MissRate)
	}
	if path.MissRate >= ing.MissRate {
		t.Fatalf("on-path miss %.3f should beat ingress %.3f", path.MissRate, ing.MissRate)
	}
	// A residual miss can remain at θ=0.1: fully disjoint reverse paths
	// must be tunneled within the link budget (the paper's Fig 17 note on
	// MaxLinkLoad limiting offload at low overlap).
	if dc.MissRate > 0.35 {
		t.Fatalf("DC miss at θ=0.1 = %.4f, expected small", dc.MissRate)
	}
	if dc.MissRate >= path.MissRate {
		t.Fatalf("DC miss %.4f should beat on-path %.4f", dc.MissRate, path.MissRate)
	}
	// With a generous link budget the DC restores (almost) full coverage.
	wide, err := SolveSplit(s, classes, SplitConfig{UseDC: true, MaxLinkLoad: 2.0, DCCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if wide.MissRate > 0.01 {
		t.Fatalf("DC miss with ample budget = %.4f, expected ≈0", wide.MissRate)
	}
	// Coverage values are valid fractions.
	for _, res := range []*SplitResult{path, dc} {
		for ci, c := range res.Coverage {
			if c < -1e-9 || c > 1+1e-9 {
				t.Fatalf("coverage[%d] = %g out of range", ci, c)
			}
		}
	}
	// The DC run must respect the link budget.
	for l, v := range dc.LinkLoad {
		if v > math.Max(0.4, s.BG[l])+1e-6 {
			t.Fatalf("link %d load %.4f over budget", l, v)
		}
	}
}

func TestSplitDisjointWithoutDCMissesEverything(t *testing.T) {
	// Hand-built 4-node diamond: fwd A→B via C, rev via D: no common node
	// except endpoints... use fully disjoint paths on a 6-node graph.
	g := topology.New("disjoint")
	a := g.AddNode("a", 1)
	c1 := g.AddNode("c1", 1)
	b := g.AddNode("b", 1)
	d1 := g.AddNode("d1", 1)
	d2 := g.AddNode("d2", 1)
	g.AddLink(a, c1)
	g.AddLink(c1, b)
	g.AddLink(b, d1)
	g.AddLink(d1, d2)
	g.AddLink(d2, a)
	tm := traffic.NewMatrix(5)
	tm.Sessions[a][b] = 100
	s := NewScenario(g, tm, ScenarioOptions{})
	ar := &topology.AsymmetricRoutes{
		Pairs: [][2]int{{a, b}},
		Fwd:   []topology.Path{s.Routing.Path(a, b)},
		// Reverse path deliberately avoids the forward path entirely.
		Rev: []topology.Path{{Nodes: []int{d1, d2}, Links: []int{3}}},
	}
	classes := BuildSplitClasses(s, ar)
	if len(classes[0].Common) != 0 {
		t.Fatalf("expected no common nodes, got %v", classes[0].Common)
	}
	res, err := SolveSplit(s, classes, SplitConfig{UseDC: false})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MissRate-1) > 1e-6 {
		t.Fatalf("disjoint paths without DC must miss everything, got %.4f", res.MissRate)
	}
	withDC, err := SolveSplit(s, classes, SplitConfig{UseDC: true, MaxLinkLoad: 0.9, DCCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if withDC.MissRate > 1e-6 {
		t.Fatalf("DC should recover coverage, miss = %.4f", withDC.MissRate)
	}
}

func TestMirrorPolicyString(t *testing.T) {
	for p, want := range map[MirrorPolicy]string{
		MirrorNone: "none", MirrorDCOnly: "dc-only", MirrorOneHop: "one-hop",
		MirrorTwoHop: "two-hop", MirrorDCPlusOneHop: "dc+one-hop", MirrorPolicy(42): "mirror(42)",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", int(p), p.String())
		}
	}
	if CPU.String() != "cpu" || Memory.String() != "memory" {
		t.Fatal("resource names")
	}
}

func TestMultiResourceScenario(t *testing.T) {
	g := topology.Internet2()
	s := NewScenario(g, traffic.GravityDefault(g), ScenarioOptions{
		Resources:  []Resource{CPU, Memory},
		Footprints: []float64{1, 0.5},
	})
	if got := s.MaxIngressLoad(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("multi-resource calibration broken: %g", got)
	}
	a, err := SolveReplication(s, ReplicationConfig{Mirror: MirrorDCOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.NodeLoad[0]) != 2 {
		t.Fatalf("expected 2 resources in load rows")
	}
	if a.MaxLoad() >= 1 {
		t.Fatalf("replication should improve on ingress even with 2 resources: %g", a.MaxLoad())
	}
}

// TestRecordLPStatsCountsOnlySolvedLPs records a closed-form assignment and
// then a solved one: the closed-form one adds no solve, no iterations and
// no timer sample but creates every lp.* key, and the solved one adds
// exactly one solve and one sample per timer.
func TestRecordLPStatsCountsOnlySolvedLPs(t *testing.T) {
	sc := internet2Scenario(t)
	reg := obs.NewRegistry()
	ing := Ingress(sc)
	RecordLPStats(reg, ing.Iterations, ing.SolveTime, ing.LPStats)
	snap := reg.Snapshot(nil)
	for _, key := range []string{"lp.solves", "lp.iterations", "lp.pivots.phase1", "lp.pivots.phase2", "lp.refactorizations", "lp.warm.hits"} {
		if v, ok := snap.Counters[key]; !ok || v != 0 {
			t.Errorf("closed form: counter %s = %d (present %v), want 0", key, v, ok)
		}
	}
	for _, key := range []string{"lp.max_eta_at_refactor", "lp.max_residual"} {
		if _, ok := snap.Gauges[key]; !ok {
			t.Errorf("closed form: gauge %s missing", key)
		}
	}
	timers := []string{"lp.solve", "lp.phase1", "lp.phase2"}
	for _, key := range timers {
		if ts, ok := snap.Timers[key]; !ok || ts.Count != 0 {
			t.Errorf("closed form: timer %s count %d (present %v), want 0", key, ts.Count, ok)
		}
	}

	a, err := SolveReplication(sc, ReplicationConfig{Mirror: MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	RecordLPStats(reg, a.Iterations, a.SolveTime, a.LPStats)
	snap = reg.Snapshot(nil)
	if got := snap.Counters["lp.solves"]; got != 1 {
		t.Errorf("after one solve: lp.solves = %d, want 1", got)
	}
	if got := snap.Counters["lp.iterations"]; got != uint64(a.Iterations) || got == 0 {
		t.Errorf("after one solve: lp.iterations = %d, want %d > 0", got, a.Iterations)
	}
	for _, key := range timers {
		if ts := snap.Timers[key]; ts.Count != 1 {
			t.Errorf("after one solve: timer %s count %d, want 1", key, ts.Count)
		}
	}
}
