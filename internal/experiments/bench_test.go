package experiments

import (
	"testing"

	"nwids/internal/core"
)

// BenchmarkWarmStart times the LP layer's warm-start win as four cold/warm
// pairs; each warm sub-benchmark reports the cold/warm per-op ratio as
// warm_speedup.
//
//   - replication: Fig 10's replication LP re-solved through a solver
//     handle (the §3 controller re-running on the same model) vs from
//     scratch.
//   - fig11: the MaxLinkLoad sweep on Internet2 and Geant at quick density,
//     chaining bases along each topology's axis vs -coldlp.
//   - fig15: the architectures re-optimized across the varying traffic
//     matrices at full density, the sweep-heaviest figure.
//   - aggregation: one AggregationSolver chained along Fig 18's β axis
//     (SetBeta is a pure objective rewrite) vs a cold solve per β.
func BenchmarkWarmStart(b *testing.B) {
	s, err := scenarioFor("Internet2")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("replication", func(b *testing.B) {
		cfg := core.ReplicationConfig{Mirror: core.MirrorDCOnly, DCCapacity: 8, MaxLinkLoad: 0.4}
		benchWarmPair(b, func(b *testing.B, cold bool) {
			if cold {
				for i := 0; i < b.N; i++ {
					if _, err := core.SolveReplication(s, cfg); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			rs, err := core.NewReplicationSolver(s, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rs.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("fig11", func(b *testing.B) {
		benchWarmPair(b, func(b *testing.B, cold bool) {
			opts := quickOpts
			opts.ColdLP = cold
			for i := 0; i < b.N; i++ {
				if _, err := Fig11(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("fig15", func(b *testing.B) {
		benchWarmPair(b, func(b *testing.B, cold bool) {
			for i := 0; i < b.N; i++ {
				if _, err := Fig15(Options{ColdLP: cold}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("aggregation", func(b *testing.B) {
		betas := []float64{0.1, 0.2, 0.5, 1, 2, 5, 10}
		benchWarmPair(b, func(b *testing.B, cold bool) {
			if cold {
				for i := 0; i < b.N; i++ {
					for _, beta := range betas {
						if _, err := core.SolveAggregation(s, core.AggregationConfig{Beta: beta}); err != nil {
							b.Fatal(err)
						}
					}
				}
				return
			}
			for i := 0; i < b.N; i++ {
				as := core.NewAggregationSolver(s, core.AggregationConfig{Beta: betas[0]})
				for _, beta := range betas {
					as.SetBeta(beta)
					if _, err := as.Solve(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	})
}

// benchWarmPair runs a cold/warm sub-benchmark pair and reports the
// observed cold/warm per-op ratio as warm_speedup on the warm
// sub-benchmark (go test prints no metric reported on a parent that has
// sub-benchmarks).
func benchWarmPair(b *testing.B, run func(b *testing.B, cold bool)) {
	var coldSec float64
	b.Run("cold", func(b *testing.B) {
		run(b, true)
		coldSec = b.Elapsed().Seconds() / float64(b.N)
	})
	b.Run("warm", func(b *testing.B) {
		run(b, false)
		if warmSec := b.Elapsed().Seconds() / float64(b.N); coldSec > 0 && warmSec > 0 {
			b.ReportMetric(coldSec/warmSec, "warm_speedup")
		}
	})
}
