package core_test

import (
	"fmt"
	"math/rand"

	"nwids/internal/core"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// The formulation variants beyond the paper's core evaluation (§4
// Extensions, §5 Extensions, §9), in four steps on Internet2.

// ExampleSolveReplicationSoftLink replaces the hard MaxLinkLoad cap with
// the Fortz-Thorup piecewise-linear link penalty and sweeps its weight.
func ExampleSolveReplicationSoftLink() {
	g := topology.Internet2()
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})

	fmt.Println("== 1. soft link costs (Fortz-Thorup) ==")
	for _, w := range []float64{0.01, 0.1, 1, 100} {
		r, err := core.SolveReplicationSoftLink(sc, core.SoftLinkConfig{
			Mirror: core.MirrorDCOnly, Weight: w,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("weight %-6g → max load %.4f, mean link cost %.4f, max link util %.3f\n",
			w, r.LoadCost, r.LinkCost, r.Assignment.MaxLinkLoad())
	}
	fmt.Println("higher weights trade compute balance for calmer links — a graceful")
	fmt.Println("alternative to the hard MaxLinkLoad cap (§4 Extensions)")

	// Output:
	// == 1. soft link costs (Fortz-Thorup) ==
	// weight 0.01   → max load 0.2037, mean link cost 0.1763, max link util 0.333
	// weight 0.1    → max load 0.2037, mean link cost 0.1763, max link util 0.333
	// weight 1      → max load 0.2037, mean link cost 0.1763, max link util 0.333
	// weight 100    → max load 0.2474, mean link cost 0.1697, max link util 0.333
	// higher weights trade compute balance for calmer links — a graceful
	// alternative to the hard MaxLinkLoad cap (§4 Extensions)
}

// ExampleSolveReplication_nodeWeights protects one NIDS node by weighting
// its load in the objective.
func ExampleSolveReplication_nodeWeights() {
	g := topology.Internet2()
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})

	fmt.Println("== 2. weighted node loads ==")
	// Protect Houston (PoP 5): double the penalty on its load.
	weights := make([]float64, g.NumNodes()+1)
	for i := range weights {
		weights[i] = 1
	}
	weights[5] = 2
	plain, err := core.SolveReplication(sc, core.ReplicationConfig{Mirror: core.MirrorDCOnly})
	if err != nil {
		panic(err)
	}
	protected, err := core.SolveReplication(sc, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, NodeWeights: weights,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("unweighted: load(Houston) = %.4f   weighted 2x: load(Houston) = %.4f\n",
		plain.NodeLoad[5][0], protected.NodeLoad[5][0])

	// Output:
	// == 2. weighted node loads ==
	// unweighted: load(Houston) = 0.2037   weighted 2x: load(Houston) = 0.1043
}

// ExampleSolveNIPS puts intrusion prevention boxes on the forwarding path
// with hairpin detours and per-class latency budgets (§9).
func ExampleSolveNIPS() {
	g := topology.Internet2()
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})

	fmt.Println("== 3. NIPS rerouting with latency budgets ==")
	for _, budget := range []float64{0, 1, 4} {
		r, err := core.SolveNIPS(sc, core.NIPSConfig{
			Mirror: core.MirrorDCOnly, LatencyBudget: budget, MaxLinkLoad: 0.4,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("latency budget %.0f extra hops → max load %.4f (mean penalty %.2f hops/session)\n",
			budget, r.Assignment.MaxLoad(), r.MeanExtraHops)
	}
	fmt.Println("prevention boxes pay bandwidth twice (hairpin) and user latency —")
	fmt.Println("the budget makes that tradeoff explicit (§9)")

	// Output:
	// == 3. NIPS rerouting with latency budgets ==
	// latency budget 0 extra hops → max load 0.2474 (mean penalty 0.00 hops/session)
	// latency budget 1 extra hops → max load 0.2037 (mean penalty 0.48 hops/session)
	// latency budget 4 extra hops → max load 0.2037 (mean penalty 0.82 hops/session)
	// prevention boxes pay bandwidth twice (hairpin) and user latency —
	// the budget makes that tradeoff explicit (§9)
}

// ExampleScenario_WithMatrix provisions slack: the configuration is
// computed from an 80th-percentile traffic matrix to absorb traffic
// shifts (§9).
func ExampleScenario_WithMatrix() {
	g := topology.Internet2()
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})

	fmt.Println("== 4. slack provisioning (p80 traffic matrix) ==")
	rng := rand.New(rand.NewSource(1))
	tms := traffic.VariabilityModel{Sigma: 0.5}.Generate(rng, traffic.GravityDefault(g), 60)
	p80 := traffic.PercentileMatrix(tms, 0.8)
	slack := sc.WithMatrix(p80)
	a, err := core.SolveReplication(slack, core.ReplicationConfig{Mirror: core.MirrorDCOnly})
	if err != nil {
		panic(err)
	}
	fmt.Printf("configuration computed against the p80 matrix: nominal max load %.4f\n", a.MaxLoad())
	fmt.Println("(see `cmd/experiments robustness` for the peak-load comparison)")

	// Output:
	// == 4. slack provisioning (p80 traffic matrix) ==
	// configuration computed against the p80 matrix: nominal max load 0.3207
	// (see `cmd/experiments robustness` for the peak-load comparison)
}
