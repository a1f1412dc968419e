package core_test

import (
	"fmt"
	"math/rand"

	"nwids/internal/core"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// ExampleSolveSplit covers asymmetric routing (§5, Fig 4): when a session's
// forward and reverse directions traverse non-intersecting paths
// (hot-potato routing), no single on-path node can run stateful analysis.
// It emulates asymmetric routes at several overlap levels and prints the
// detection miss rate of three architectures: today's ingress-only
// deployment, pure on-path distribution, and the paper's replication to a
// datacenter.
func ExampleSolveSplit() {
	g := topology.Internet2()
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	routing := sc.Routing
	pool := topology.NewPathPool(routing)
	rng := rand.New(rand.NewSource(7))

	fmt.Println("θ(target)  achieved  miss(Ingress)  miss(Path)  miss(DC-0.4)")
	for _, theta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		// Forward paths are shortest paths; reverse paths are drawn from
		// the all-pairs pool to hit θ' ~ N(θ, θ/5).
		ar := topology.GenerateAsymmetric(routing, pool, theta, rng)
		classes := core.BuildSplitClasses(sc, ar)

		// Ingress-only: the forward ingress analyzes a session only when
		// the reverse path happens to pass through it too.
		ing := core.IngressSplit(sc, classes)

		// On-path: only nodes common to both directions can cover.
		path, err := core.SolveSplit(sc, classes, core.SplitConfig{UseDC: false})
		if err != nil {
			panic(err)
		}

		// Replication: either direction can be tunneled to the DC, which
		// then observes both sides and restores stateful coverage.
		dc, err := core.SolveSplit(sc, classes, core.SplitConfig{
			UseDC: true, MaxLinkLoad: 0.4, DCCapacity: 10,
		})
		if err != nil {
			panic(err)
		}

		fmt.Printf("%9.1f  %8.2f  %13.3f  %10.3f  %12.3f\n",
			theta, ar.MeanOverlap, ing.MissRate, path.MissRate, dc.MissRate)
	}
	fmt.Println("\nreplication drives the miss rate to ~0 (paper Fig 16); the small residual at")
	fmt.Println("θ=0.1 is the MaxLinkLoad budget limiting offload, the paper's Fig 17 note")

	// Output:
	// θ(target)  achieved  miss(Ingress)  miss(Path)  miss(DC-0.4)
	//       0.1      0.12          0.600       0.194         0.048
	//       0.3      0.30          0.448       0.000         0.000
	//       0.5      0.48          0.243       0.000         0.000
	//       0.7      0.69          0.174       0.000         0.000
	//       0.9      0.89          0.047       0.000         0.000
	//
	// replication drives the miss rate to ~0 (paper Fig 16); the small residual at
	// θ=0.1 is the MaxLinkLoad budget limiting offload, the paper's Fig 17 note
}
