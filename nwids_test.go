// Package nwids holds no library code: the module's packages live under
// internal/ and its binaries under cmd/. The tests here drive those
// packages end to end, from the evaluation scenario through the
// controller's assignment to the shim configs and the emulation.
package nwids

import (
	"math"
	"testing"

	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/shim"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

func defaultScenario(g *topology.Graph) *core.Scenario {
	return core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
}

// TestFacadeQuickstart checks the README quickstart: replication to a
// datacenter keeps the max NIDS load well below ingress-only's 1.0.
func TestFacadeQuickstart(t *testing.T) {
	sc := defaultScenario(topology.Internet2())
	a, err := core.SolveReplication(sc, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxLoad() >= 0.5 {
		t.Fatalf("replication max load = %.3f, expected well below ingress-only 1.0", a.MaxLoad())
	}
	ing := core.Ingress(sc)
	if math.Abs(ing.MaxLoad()-1) > 1e-9 {
		t.Fatalf("ingress max load = %g", ing.MaxLoad())
	}
}

// TestFacadeEndToEnd runs controller → shim configs → emulation.
func TestFacadeEndToEnd(t *testing.T) {
	sc := defaultScenario(topology.Internet2())
	a, err := core.SolveReplication(sc, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := shim.CompileConfigs(a, 1)
	if len(cfgs) != 12 {
		t.Fatalf("shim configs = %d", len(cfgs))
	}
	res, err := emulation.Run(emulation.Config{Assignment: a, TotalSessions: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.OwnershipErrors != 0 {
		t.Fatalf("ownership errors: %d", res.OwnershipErrors)
	}
	if res.DetectedSessions < res.MaliciousSessions {
		t.Fatal("lost detections")
	}
}
