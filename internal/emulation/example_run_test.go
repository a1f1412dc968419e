package emulation_test

import (
	"fmt"

	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// ExampleRun builds the Internet2 evaluation scenario, compares today's
// ingress-only NIDS deployment with on-path distribution and the paper's
// replication architecture, and runs the optimized configuration through
// the emulation to confirm detections survive.
func ExampleRun() {
	// 1. Topology and scenario: gravity traffic at the paper's scale,
	//    node capacities calibrated so ingress-only peaks at load 1.0.
	g := topology.Internet2()
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	fmt.Printf("topology %s: %d PoPs, %.0f sessions across %d classes\n",
		g.Name(), g.NumNodes(), sc.TotalSessions(), len(sc.Classes))

	// 2. Today's deployment: everything at each class's ingress.
	ingress := core.Ingress(sc)
	fmt.Printf("ingress-only max load:    %.4f\n", ingress.MaxLoad())

	// 3. Prior work: on-path distribution without replication [29].
	onPath, err := core.SolveReplication(sc, core.ReplicationConfig{Mirror: core.MirrorNone})
	if err != nil {
		panic(err)
	}
	fmt.Printf("on-path max load:         %.4f\n", onPath.MaxLoad())

	// 4. The paper's architecture: replicate to a 10× datacenter, keeping
	//    replication-induced link load under 40%.
	rep, err := core.SolveReplication(sc, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("replication max load:     %.4f (DC at %s, link load ≤ %.2f)\n",
		rep.MaxLoad(), g.Node(rep.DCAttach).Name, rep.MaxLinkLoad())
	fmt.Printf("improvement vs ingress:   %.1fx\n", ingress.MaxLoad()/rep.MaxLoad())

	// 5. Execute the assignment: compile hash-range shim configs and replay
	//    a generated trace; every planted signature must still be caught.
	res, err := emulation.Run(emulation.Config{Assignment: rep, TotalSessions: 2000})
	if err != nil {
		panic(err)
	}
	fmt.Printf("emulation: %d sessions, %d malicious, %d detected, %d ownership errors\n",
		res.Sessions, res.MaliciousSessions, res.DetectedSessions, res.OwnershipErrors)

	// Output:
	// topology Internet2: 11 PoPs, 8000000 sessions across 110 classes
	// ingress-only max load:    1.0000
	// on-path max load:         0.4088
	// replication max load:     0.2037 (DC at Houston, link load ≤ 0.40)
	// improvement vs ingress:   4.9x
	// emulation: 2004 sessions, 42 malicious, 42 detected, 0 ownership errors
}
