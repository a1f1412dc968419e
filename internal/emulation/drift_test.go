package emulation

import (
	"reflect"
	"testing"

	"nwids/internal/controller"
	"nwids/internal/obs"
	"nwids/internal/topology"
)

func runDriftScenario(t *testing.T, name string, planner controller.Planner) *DriftResult {
	t.Helper()
	cfg, err := DriftScenario(name, topology.Internet2(), 240)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Planner = planner
	res, err := RunDrift(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunDriftInvariants: across all three preset scenarios and both
// planners, a drift run must keep every session owned, never miss a
// detection the centralized oracle makes, and keep the fleet counters
// reconciled through merged transition windows.
func TestRunDriftInvariants(t *testing.T) {
	for _, name := range []string{"diurnal", "flash", "drain"} {
		for _, planner := range []controller.Planner{controller.ChurnMinPlanner{}, controller.NaivePlanner{}} {
			t.Run(name+"/"+planner.Name(), func(t *testing.T) {
				res := runDriftScenario(t, name, planner)
				if res.OwnershipErrors != 0 {
					t.Errorf("%d ownership errors", res.OwnershipErrors)
				}
				if res.Missed != 0 {
					t.Errorf("fleet missed %d of %d oracle detections",
						res.Missed, res.OracleDetected)
				}
				if res.OracleDetected == 0 {
					t.Error("oracle detected nothing; parity check is vacuous")
				}
				if !res.Reconciled {
					t.Errorf("counters do not reconcile: %+v", res.Counters)
				}
				if len(res.Reconfigs) == 0 {
					t.Error("run committed no reconfigurations; scenario exercises nothing")
				}
			})
		}
	}
}

// TestRunDriftFiresDetectors: the diurnal and flash scenarios must trigger
// reconfigurations through the drift detectors, not operator intervention.
func TestRunDriftFiresDetectors(t *testing.T) {
	for _, name := range []string{"diurnal", "flash"} {
		res := runDriftScenario(t, name, controller.ChurnMinPlanner{})
		if res.DriftEvents == 0 {
			t.Errorf("%s: no drift events fired", name)
		}
		driftTriggered := 0
		for _, rc := range res.Reconfigs {
			if len(rc.Trigger) >= 6 && rc.Trigger[:6] == "drift:" {
				driftTriggered++
			}
		}
		if driftTriggered == 0 {
			t.Errorf("%s: no drift-triggered reconfiguration (reconfigs: %+v)", name, res.Reconfigs)
		}
	}
}

// TestRunDriftChurnMinBeatsNaive is the acceptance criterion: on the
// diurnal and flash scenarios the churn-minimizing planner must move
// strictly fewer sessions (in deterministic expectation — the raw count
// carries finite-population hash noise of a few sessions) than the naive
// full recompute, and its hash-measure churn must never exceed naive's at
// any individual reconfiguration.
func TestRunDriftChurnMinBeatsNaive(t *testing.T) {
	for _, name := range []string{"diurnal", "flash"} {
		cm := runDriftScenario(t, name, controller.ChurnMinPlanner{})
		nv := runDriftScenario(t, name, controller.NaivePlanner{})
		if cm.ExpectedSessionsMoved >= nv.ExpectedSessionsMoved {
			t.Errorf("%s: churn-min expects to move %.1f sessions, naive %.1f; want strictly fewer",
				name, cm.ExpectedSessionsMoved, nv.ExpectedSessionsMoved)
		}
		if len(cm.Reconfigs) != len(nv.Reconfigs) {
			t.Fatalf("%s: planners committed different reconfig counts: %d vs %d",
				name, len(cm.Reconfigs), len(nv.Reconfigs))
		}
		for i := range cm.Reconfigs {
			if cmc, nvc := cm.Reconfigs[i].PlannedChurn, nv.Reconfigs[i].PlannedChurn; cmc > nvc+1e-9 {
				t.Errorf("%s epoch %d: churn-min hash churn %.4f exceeds naive %.4f",
					name, cm.Reconfigs[i].Epoch, cmc, nvc)
			}
		}
		t.Logf("%s: churn-min moved %d (expected %.1f), naive moved %d (expected %.1f)",
			name, cm.SessionsMoved, cm.ExpectedSessionsMoved, nv.SessionsMoved, nv.ExpectedSessionsMoved)
	}
}

// TestRunDriftDeterministic: two runs of the same scenario must produce
// identical timelines (virtual timestamps included) and statistics.
func TestRunDriftDeterministic(t *testing.T) {
	a := runDriftScenario(t, "flash", controller.ChurnMinPlanner{})
	b := runDriftScenario(t, "flash", controller.ChurnMinPlanner{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("drift runs diverge:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunDriftSharedRegistryIsolation: runs sharing one metrics registry
// (as concurrent sweep jobs under -metrics do) must behave exactly like
// runs with no registry — the watched series live on a private per-run
// registry, so shared-registry reuse must not cross-contaminate detectors.
func TestRunDriftSharedRegistryIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	shared := func() *DriftResult {
		cfg, err := DriftScenario("flash", topology.Internet2(), 240)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Planner = controller.ChurnMinPlanner{}
		cfg.Obs = reg
		res, err := RunDrift(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := shared(), shared()
	bare := runDriftScenario(t, "flash", controller.ChurnMinPlanner{})
	if !reflect.DeepEqual(first, second) {
		t.Error("two runs sharing a registry diverge")
	}
	if !reflect.DeepEqual(first, bare) {
		t.Error("run with a shared registry diverges from a bare run")
	}
}

// TestRunDriftDrainShedsLoad: the drain scenario's operator trigger must
// commit a reconfiguration that moves hash space off the drained node.
func TestRunDriftDrainShedsLoad(t *testing.T) {
	res := runDriftScenario(t, "drain", controller.ChurnMinPlanner{})
	operator := 0
	for _, rc := range res.Reconfigs {
		if len(rc.Trigger) >= 9 && rc.Trigger[:9] == "operator:" {
			operator++
			if rc.SessionsMoved == 0 && rc.SessionsRemaining > 0 {
				t.Errorf("operator reconfiguration %q moved no sessions", rc.Trigger)
			}
		}
	}
	if operator == 0 {
		t.Fatalf("no operator-triggered reconfiguration committed (reconfigs: %+v)", res.Reconfigs)
	}
}

// TestRunDriftJoinsGoroutines: RunDrift's producer and oracle goroutines
// are joined on every return path, whether the run succeeds or
// controller.New fails while the producer is blocked on a full channel.
// A body is counted out before its WaitGroup is released, so the count is
// exact the moment RunDrift returns.
func TestRunDriftJoinsGoroutines(t *testing.T) {
	if res := runDriftScenario(t, "flash", nil); res.Sessions == 0 {
		t.Fatal("run walked no sessions")
	}
	if n := pipelineBodies.Load(); n != 0 {
		t.Errorf("after a successful run: %d pipeline bodies still running", n)
	}

	cfg, err := DriftScenario("flash", topology.Internet2(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replication.LP.MaxIterations = 1
	if _, err := RunDrift(*cfg); err == nil {
		t.Fatal("RunDrift succeeded with a one-pivot LP budget; want controller.New to fail")
	}
	if n := pipelineBodies.Load(); n != 0 {
		t.Errorf("after a failed run: %d pipeline bodies still running", n)
	}
}
