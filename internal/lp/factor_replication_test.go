package lp_test

import (
	"testing"

	"nwids/internal/core"
	"nwids/internal/lp"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// TestFactorizeMatchesReferenceOnReplicationBases takes the bases the
// differential test runs on from where the solver's time goes: the
// Internet2 and Geant replication LPs, stopped every few dozen pivots on the
// way from the ingress crash basis to the optimum, so the factorized
// matrices range from near-triangular to the fill-heavy bases of phase 2.
func TestFactorizeMatchesReferenceOnReplicationBases(t *testing.T) {
	for _, topo := range []string{"Internet2", "Geant"} {
		g := topology.ByName(topo)
		s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
		p, crash, atUpper, err := core.BuildReplicationProblem(s,
			core.ReplicationConfig{Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10})
		if err != nil {
			t.Fatal(err)
		}
		opts := lp.Options{CrashBasis: crash, AtUpper: atUpper}
		bases := 0
		for iters := 0; ; iters += 37 {
			ran, diff := lp.DiffFactorizeAfter(p, opts, iters)
			if diff != "" {
				t.Fatalf("%s after %d iterations: %s", topo, ran, diff)
			}
			bases++
			if ran < iters {
				break // the solve finished before the limit: that was the optimal basis
			}
		}
		if bases < 4 {
			t.Errorf("%s: only %d bases captured", topo, bases)
		}
	}
}
