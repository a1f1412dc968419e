package nwids_test

import (
	"math"
	"testing"

	"nwids"
)

// TestFacadeQuickstart exercises the doc-comment quickstart end to end.
func TestFacadeQuickstart(t *testing.T) {
	g := nwids.Internet2()
	sc := nwids.DefaultScenario(g)
	a, err := nwids.SolveReplication(sc, nwids.ReplicationConfig{
		Mirror: nwids.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxLoad() >= 0.5 {
		t.Fatalf("replication max load = %.3f, expected well below ingress-only 1.0", a.MaxLoad())
	}
	ing := nwids.IngressOnly(sc)
	if math.Abs(ing.MaxLoad()-1) > 1e-9 {
		t.Fatalf("ingress max load = %g", ing.MaxLoad())
	}
}

// TestFacadeEndToEnd runs controller → shim configs → emulation through the
// public API only.
func TestFacadeEndToEnd(t *testing.T) {
	sc := nwids.DefaultScenario(nwids.Internet2())
	a, err := nwids.SolveReplication(sc, nwids.ReplicationConfig{
		Mirror: nwids.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := nwids.CompileShimConfigs(a, 1)
	if len(cfgs) != 12 {
		t.Fatalf("shim configs = %d", len(cfgs))
	}
	res, err := nwids.Emulate(nwids.EmulationConfig{Assignment: a, TotalSessions: 400})
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

func TestFacadeNIDSTypes(t *testing.T) {
	rules := nwids.DefaultRules()
	e := nwids.NewEngine(rules, 10)
	if e.ActiveFlows() != 0 {
		t.Fatal("fresh engine")
	}
	m := nwids.NewMatcher([][]byte{[]byte("abc")})
	if len(m.Scan([]byte("zabcz"))) != 1 {
		t.Fatal("matcher via facade")
	}
	d := nwids.NewScanDetector(1)
	d.Observe(1, 2)
	d.Observe(1, 3)
	if len(d.Report()) != 1 {
		t.Fatal("scan detector via facade")
	}
}

func TestFacadeTopologyHelpers(t *testing.T) {
	if len(nwids.Topologies()) != 8 {
		t.Fatal("Topologies")
	}
	if nwids.TopologyByName("NTT").NumNodes() != 70 {
		t.Fatal("ByName")
	}
	g := nwids.RocketfuelLike("x", 10, 5)
	if !g.Connected() {
		t.Fatal("generator")
	}
	sc := nwids.DefaultScenario(nwids.Geant())
	if nwids.DCPlacement(sc) < 0 {
		t.Fatal("placement")
	}
}
