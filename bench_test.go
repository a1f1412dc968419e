// Benchmarks regenerating the paper's tables and figures (§8). Each
// Benchmark* corresponds to one table or figure; the rows/series themselves
// are printed by `cmd/experiments` and recorded in EXPERIMENTS.md. To keep
// `go test -bench=.` tractable on one core, the figure benchmarks run the
// experiments at reduced sweep density over the two smallest topologies;
// BenchmarkTable1/* runs the actual optimization at full scale for every
// evaluation topology (the quantity Table 1 reports).
package nwids_test

import (
	"testing"

	"nwids"
	"nwids/internal/core"
	"nwids/internal/experiments"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Topologies: []string{"Internet2", "Geant"}}
}

// BenchmarkTable1 measures the replication-LP solve time per topology at
// full evaluation scale — the quantity reported in Table 1.
func BenchmarkTable1(b *testing.B) {
	defer benchRecord(b)
	for _, name := range topology.EvaluationNames() {
		b.Run(name+"/replication", func(b *testing.B) {
			defer benchRecord(b)
			g := topology.ByName(name)
			s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveReplication(s, core.ReplicationConfig{
					Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/aggregation", func(b *testing.B) {
			defer benchRecord(b)
			g := topology.ByName(name)
			s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveAggregation(s, core.AggregationConfig{Beta: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWarmPair runs a cold/warm sub-benchmark pair and records the
// observed cold/warm per-op ratio under bench.<name>.warm_speedup.
func benchWarmPair(b *testing.B, name string, run func(b *testing.B, cold bool)) {
	var coldSec, warmSec float64
	b.Run("cold", func(b *testing.B) {
		defer benchRecord(b)
		run(b, true)
		coldSec = b.Elapsed().Seconds() / float64(b.N)
	})
	b.Run("warm", func(b *testing.B) {
		defer benchRecord(b)
		run(b, false)
		warmSec = b.Elapsed().Seconds() / float64(b.N)
	})
	if coldSec > 0 && warmSec > 0 {
		benchReg.Gauge("bench." + name + ".warm_speedup").Max(coldSec / warmSec)
	}
}

// BenchmarkFig10 runs the Emulab-style emulation comparison (per-node work
// with and without replication), then isolates the LP layer's warm-start
// win: lp-warm re-solves Fig 10's replication LP through a solver handle
// (the §3 controller re-running on the same model), lp-cold from scratch.
func BenchmarkFig10(b *testing.B) {
	defer benchRecord(b)
	b.Run("emulation", func(b *testing.B) {
		defer benchRecord(b)
		for i := 0; i < b.N; i++ {
			r, err := experiments.Fig10(experiments.Options{Quick: true})
			if err != nil {
				b.Fatal(err)
			}
			if r.MaxReduction < 1.2 {
				b.Fatalf("fig10 reduction %.2f", r.MaxReduction)
			}
		}
	})
	g := topology.ByName("Internet2")
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	cfg := core.ReplicationConfig{Mirror: core.MirrorDCOnly, DCCapacity: 8, MaxLinkLoad: 0.4}
	benchWarmPair(b, "Fig10/lp", func(b *testing.B, cold bool) {
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
}

// BenchmarkFig11 sweeps MaxLinkLoad (max compute load vs allowed link load)
// with basis chaining along each topology's sweep, and cold per point.
func BenchmarkFig11(b *testing.B) {
	defer benchRecord(b)
	benchWarmPair(b, "Fig11", func(b *testing.B, cold bool) {
		opts := benchOpts()
		opts.ColdLP = cold
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Fig11(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12 compares DC load to interior NIDS load across configs.
func BenchmarkFig12(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13 compares the four NIDS architectures.
func BenchmarkFig13(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14 compares local one-/two-hop replication to on-path.
func BenchmarkFig14(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15 re-optimizes the architectures across varying traffic
// matrices (peak-load distribution) — the sweep-heaviest figure, run at
// full density so the LP time dominates: warm chains each architecture's
// basis across the matrix sequence, cold solves every point from scratch.
func BenchmarkFig15(b *testing.B) {
	defer benchRecord(b)
	benchWarmPair(b, "Fig15", func(b *testing.B, cold bool) {
		opts := experiments.Options{ColdLP: cold}
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Fig15(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig16 and BenchmarkFig17 share the asymmetric-routing sweep
// (miss rate and max load vs overlap factor).
func BenchmarkFig16(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1617(experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17 is the load half of the shared sweep; kept separate so the
// benchmark list maps one-to-one onto the paper's figures.
func BenchmarkFig17(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1617(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = r.RenderLoad()
	}
}

// BenchmarkFig18 sweeps β (compute/communication tradeoff of aggregation).
// The figure run itself is dominated by scenario setup at quick density, so
// the warm-start pair isolates the LP layer the way Fig10/lp does: lp-warm
// chains one AggregationSolver handle along Fig 18's β axis (SetBeta is a
// pure objective rewrite), lp-cold rebuilds and solves from scratch per β.
func BenchmarkFig18(b *testing.B) {
	defer benchRecord(b)
	b.Run("figure", func(b *testing.B) {
		defer benchRecord(b)
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Fig18(benchOpts()); err != nil {
				b.Fatal(err)
			}
		}
	})
	g := topology.ByName("Internet2")
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	betas := []float64{0.1, 0.2, 0.5, 1, 2, 5, 10}
	benchWarmPair(b, "Fig18/lp", func(b *testing.B, cold bool) {
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
}

// BenchmarkFig19 compares load imbalance with and without aggregation.
func BenchmarkFig19(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig19(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacement compares the four DC placement strategies (§8.2).
func BenchmarkPlacement(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Placement(experiments.Options{Topologies: []string{"Internet2"}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShimThroughput measures the shim's per-packet decision rate —
// the §8.1 "shim overhead" microbenchmark. The paper reports no added drops
// up to 1 Gbps; the analogous criterion here is decisions far faster than
// packet inter-arrival at that rate (~80k packets/s for 1500B packets).
func BenchmarkShimThroughput(b *testing.B) {
	defer benchRecord(b)
	sc := nwids.DefaultScenario(nwids.Internet2())
	a, err := nwids.SolveReplication(sc, nwids.ReplicationConfig{
		Mirror: nwids.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfgs := nwids.CompileShimConfigs(a, 1)
	sh := nwids.NewShim(cfgs[0])
	gen := newBenchPacketGen()
	pkts := gen(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%len(pkts)]
		sh.DecideFlow(p, nwids.HashTuple(p.Tuple, 1), 1)
	}
}

// BenchmarkEmulation measures end-to-end emulation throughput.
func BenchmarkEmulation(b *testing.B) {
	defer benchRecord(b)
	sc := nwids.DefaultScenario(nwids.Internet2())
	a, err := nwids.SolveReplication(sc, nwids.ReplicationConfig{
		Mirror: nwids.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nwids.Emulate(nwids.EmulationConfig{Assignment: a, TotalSessions: 500})
		if err != nil {
			b.Fatal(err)
		}
		if res.OwnershipErrors != 0 {
			b.Fatal("ownership errors")
		}
	}
}

// BenchmarkAblation exercises the solver design-choice comparison from
// DESIGN.md (crash basis, λ start, refactorization interval, presolve).
func BenchmarkAblation(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(experiments.Options{Topologies: []string{"Internet2"}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkRobustness exercises the §9 slack-provisioning comparison.
func BenchmarkRobustness(b *testing.B) {
	defer benchRecord(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness(experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanAggregation runs end-to-end distributed scan detection.
func BenchmarkScanAggregation(b *testing.B) {
	defer benchRecord(b)
	sc := nwids.DefaultScenario(nwids.Internet2())
	agg, err := nwids.SolveAggregation(sc, nwids.AggregationConfig{Beta: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nwids.EmulateScan(nwids.ScanEmulationConfig{Assignment: agg.Assignment, K: 15})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equivalent {
			b.Fatal("distributed scan diverged from oracle")
		}
	}
}
