package emulation

import (
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nwids/internal/core"
	"nwids/internal/packet"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

func internet2Assignments(t testing.TB) (noRep, rep *core.Assignment) {
	t.Helper()
	g := topology.Internet2()
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	var err error
	noRep, err = core.SolveReplication(s, core.ReplicationConfig{Mirror: core.MirrorNone})
	if err != nil {
		t.Fatal(err)
	}
	// Fig 10's setup: a single DC with 8× capacity, MaxLinkLoad 0.4.
	rep, err = core.SolveReplication(s, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, DCCapacity: 8, MaxLinkLoad: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return noRep, rep
}

func TestEmulationOwnershipAndDetection(t *testing.T) {
	_, rep := internet2Assignments(t)
	res, err := Run(Config{Assignment: rep, TotalSessions: 800})
	if err != nil {
		t.Fatal(err)
	}
	if res.OwnershipErrors != 0 {
		t.Fatalf("%d sessions had != 1 owner", res.OwnershipErrors)
	}
	if res.Sessions < 800 {
		t.Fatalf("sessions = %d", res.Sessions)
	}
	if res.MaliciousSessions == 0 {
		t.Fatal("workload should include malicious sessions")
	}
	if res.DetectedSessions < res.MaliciousSessions {
		t.Fatalf("detected %d of %d malicious sessions — replication must not lose detections",
			res.DetectedSessions, res.MaliciousSessions)
	}
	// Stateful integrity: every flow must be seen in both directions at its
	// owner (bidirectional pinning).
	for _, n := range res.Nodes {
		if n.FlowsOneSided != 0 {
			t.Fatalf("node %d has %d one-sided flows; hashing must pin both directions together", n.Node, n.FlowsOneSided)
		}
	}
}

// TestEmulationFig10Shape reproduces Figure 10's qualitative result: with
// replication to an 8× DC, the most loaded non-DC node does roughly half
// the work it does under pure on-path distribution, at (almost) unchanged
// total work.
func TestEmulationFig10Shape(t *testing.T) {
	noRep, rep := internet2Assignments(t)
	base, err := Run(Config{Assignment: noRep, TotalSessions: 1500})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Run(Config{Assignment: rep, TotalSessions: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if base.MaxWorkExDC() == 0 || with.MaxWorkExDC() == 0 {
		t.Fatal("zero work recorded")
	}
	ratio := float64(base.MaxWorkExDC()) / float64(with.MaxWorkExDC())
	if ratio < 1.3 {
		t.Fatalf("replication should significantly cut the max non-DC work; ratio = %.2f", ratio)
	}
	// Total work is conserved up to boundary effects: replication moves
	// work, it does not create or destroy it.
	tb, tw := float64(base.TotalWork()), float64(with.TotalWork())
	if tw < 0.95*tb || tw > 1.05*tb {
		t.Fatalf("total work changed: %.0f vs %.0f", tb, tw)
	}
	// The DC must absorb real work in the replicated configuration.
	dc := with.Nodes[len(with.Nodes)-1]
	if !dc.IsDC || dc.WorkUnits == 0 {
		t.Fatalf("DC stats wrong: %+v", dc)
	}
}

func TestEmulationDeterminism(t *testing.T) {
	_, rep := internet2Assignments(t)
	a, err := Run(Config{Assignment: rep, TotalSessions: 300, GenSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Assignment: rep, TotalSessions: 300, GenSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Nodes {
		if a.Nodes[j].WorkUnits != b.Nodes[j].WorkUnits {
			t.Fatalf("node %d work differs between identical runs", j)
		}
	}
}

// TestEmulationLiveTunnels runs the replicated configuration with real TCP
// tunnels on loopback and checks that detection results match the
// in-process run.
func TestEmulationLiveTunnels(t *testing.T) {
	_, rep := internet2Assignments(t)
	inproc, err := Run(Config{Assignment: rep, TotalSessions: 300, GenSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	live, err := Run(Config{Assignment: rep, TotalSessions: 300, GenSeed: 4, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if live.OwnershipErrors != 0 {
		t.Fatalf("live ownership errors: %d", live.OwnershipErrors)
	}
	if live.DetectedSessions < live.MaliciousSessions {
		t.Fatalf("live mode lost detections: %d of %d", live.DetectedSessions, live.MaliciousSessions)
	}
	// Same trace, same assignment: per-node packet counts must agree.
	for j := range inproc.Nodes {
		if inproc.Nodes[j].Packets != live.Nodes[j].Packets {
			t.Fatalf("node %d: in-process %d packets vs live %d", j,
				inproc.Nodes[j].Packets, live.Nodes[j].Packets)
		}
	}
	// Tunnel bytes must flow in the live run.
	var tb uint64
	for _, n := range live.Nodes {
		tb += n.TunnelBytes
	}
	if tb == 0 {
		t.Fatal("no tunnel traffic in live mode")
	}
}

// TestLiveDrainTimeoutIsAnError forces the live-tunnel drain to time out
// with a delivery count that never reaches what was sent: the run must fail
// with an error naming both numbers, not report partial stats as final.
func TestLiveDrainTimeoutIsAnError(t *testing.T) {
	stuck := newDelivery()
	for i := 0; i < 41; i++ {
		stuck.add()
	}
	err := stuck.await(100, 10*time.Millisecond)
	if err == nil {
		t.Fatal("drain that never completes returned no error")
	}
	for _, want := range []string{"timed out", "41 of 100"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	done := newDelivery()
	for i := 0; i < 100; i++ {
		done.add()
	}
	if err := done.await(100, 10*time.Millisecond); err != nil {
		t.Errorf("drain that is already complete: %v", err)
	}
	// A drain that starts before the packets arrive wakes on the last one.
	late := newDelivery()
	go func() {
		for i := 0; i < 1000; i++ {
			late.add()
		}
	}()
	if err := late.await(1000, time.Minute); err != nil {
		t.Errorf("drain that completes while waiting: %v", err)
	}
}

func TestEmulationNilAssignment(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("want error for nil assignment")
	}
}

func TestSessionCountsMinimumOne(t *testing.T) {
	g := topology.Internet2()
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	counts := sessionCounts(s, 50) // far fewer than classes
	for _, cl := range s.Classes {
		if counts[cl.Src][cl.Dst] < 1 {
			t.Fatal("every class must get at least one session")
		}
	}
}

// TestSaveTraceRoundTrip: a saved trace reads back as exactly the
// sessions GenerateWorkload makes — tuples, payload bytes, directions and
// the planted-signature labels.
func TestSaveTraceRoundTrip(t *testing.T) {
	_, rep := internet2Assignments(t)
	path := t.TempDir() + "/trace.nwt"
	if err := SaveTrace(path, rep, 200, 7); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sessions, err := packet.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	want := GenerateWorkload(Config{Assignment: rep, TotalSessions: 200, GenSeed: 7})
	if len(sessions) != len(want) {
		t.Fatalf("trace has %d sessions, generator produced %d", len(sessions), len(want))
	}
	malicious := 0
	for i := range sessions {
		if !reflect.DeepEqual(sessions[i], want[i]) {
			t.Fatalf("session %d differs from the regenerated workload:\n got %+v\nwant %+v", i, sessions[i], want[i])
		}
		if want[i].Malicious {
			malicious++
		}
	}
	if malicious == 0 {
		t.Error("workload has no malicious session; the label comparison is vacuous")
	}
}

// TestRunJoinsProducer: Run's producer goroutine has returned by the time
// Run does. The run spans many batches, so the producer was still
// generating while the walk ran.
func TestRunJoinsProducer(t *testing.T) {
	_, rep := internet2Assignments(t)
	res, err := Run(Config{Assignment: rep, TotalSessions: 1000, PacketsPerSession: 2, PayloadBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions < 8*streamBatchSessions {
		t.Fatalf("run walked %d sessions, want several batches", res.Sessions)
	}
	if n := pipelineBodies.Load(); n != 0 {
		t.Errorf("after a successful run: %d pipeline bodies still running", n)
	}
}

// TestRunAllocBudget: a Run of 1400 B payloads allocates less than a
// quarter of the payload bytes it generates. The producer writes every
// session into recycled batch arenas, and a Run that neither Obs nor Log
// reads records no timeline, so what a Run allocates is its fixed set-up
// (automaton, the arenas themselves) plus flow state; a producer that
// allocated each session's payloads afresh would allocate more than the
// payload bytes. At 4000 sessions the fixed set-up weighs twice as much
// against the payload as at 8000, so that case also fails if a plain Run
// builds its timeline series.
func TestRunAllocBudget(t *testing.T) {
	_, rep := internet2Assignments(t)
	for _, sessions := range []int{8000, 4000} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(Config{Assignment: rep, TotalSessions: sessions, PayloadBytes: 1400})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		payload := uint64(res.Sessions) * 6 * 1400
		if got := after.TotalAlloc - before.TotalAlloc; got >= payload/4 {
			t.Errorf("%d sessions: Run allocated %d B for %d B of payload (%.3f×); want under 0.25×",
				sessions, got, payload, float64(got)/float64(payload))
		}
	}
}
