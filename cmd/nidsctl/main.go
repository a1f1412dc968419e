// Command nidsctl is the network-wide NIDS controller CLI: it builds the
// evaluation scenario for a topology, solves the selected architecture's
// optimization, and prints the resulting load picture and (optionally) the
// per-node hash-range shim configurations.
//
// Usage:
//
//	nidsctl -topology Internet2 -arch replicate -mll 0.4 -dc 10 [-ranges]
//	nidsctl -topology Internet2 -watch flash [-sessions 480]
//	nidsctl -topology NTT -listen localhost:9090
//
// With -listen, the registry is served live on /metrics (OpenMetrics) plus
// /healthz and the pprof handlers under /debug/pprof/, and the process
// stays up after the solve until interrupted; no other flag serves pprof.
//
// Architectures: ingress, onpath, replicate, onehop, twohop, dc+onehop,
// augmented.
//
// With -watch, nidsctl runs as the online-controller service against an
// emulated drifting workload (diurnal, flash or drain): drift detectors
// over per-class load series trigger warm LP re-solves, and each
// reconfiguration rolls out two-phase make-before-break. The run's epoch
// timeline and churn/detection statistics are printed at the end; -listen
// and -metrics expose the controller.* and drift.* instruments.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nwids/internal/controller"
	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/lp"
	"nwids/internal/metrics"
	"nwids/internal/obs"
	"nwids/internal/shim"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

func main() {
	topo := flag.String("topology", "Internet2", "evaluation topology name (Internet2, Geant, Enterprise, TiNet, Telstra, Sprint, Level3, NTT)")
	arch := flag.String("arch", "replicate", "architecture: ingress | onpath | replicate | onehop | twohop | dc+onehop | augmented")
	mll := flag.Float64("mll", 0.4, "maximum allowed link load for replication")
	dcCap := flag.Float64("dc", 10, "datacenter capacity as a multiple of one NIDS node")
	ranges := flag.Bool("ranges", false, "print per-node hash-range shim configurations")
	watch := flag.String("watch", "", "run the online controller against a drifting workload: diurnal | flash | drain")
	sessions := flag.Int("sessions", 480, "sessions per workload phase in -watch mode")
	naive := flag.Bool("naive", false, "use the naive full-recompute planner in -watch mode (baseline)")
	mpsOut := flag.String("mps", "", "dump the LP instance to this file in MPS format instead of solving")
	verbose := flag.Bool("v", false, "log solver progress (JSONL on stderr)")
	metricsOut := flag.String("metrics", "", "write solve metrics to this JSON file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file (about:tracing / Perfetto) to this path")
	listen := flag.String("listen", "", "serve /metrics, /healthz and pprof on this address (e.g. localhost:9090) and stay up after the solve")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	level := obs.LevelWarn
	if *verbose {
		level = obs.LevelDebug
	}
	log := obs.NewLogger(os.Stderr, level)
	reg := obs.NewRegistry()
	if *listen != "" {
		addr, err := obs.ServeTelemetry(*listen, reg, nil)
		if err != nil {
			log.Error("telemetry server failed", "err", err.Error())
			os.Exit(1)
		}
		fmt.Printf("telemetry serving on http://%s/metrics\n", addr)
	}
	stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		log.Error("profiling setup failed", "err", err.Error())
		os.Exit(1)
	}

	g := topology.ByName(*topo)
	if g == nil {
		log.Error("unknown topology", "topology", *topo, "choices", topology.EvaluationNames())
		os.Exit(2)
	}
	if *watch != "" {
		runWatch(g, *watch, *sessions, *naive, reg, log, *metricsOut)
		if err := stopProf(); err != nil {
			log.Error("profile write failed", "err", err.Error())
		}
		if *listen != "" {
			fmt.Println("watch run complete; telemetry endpoint stays up (interrupt to exit)")
			select {}
		}
		return
	}
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})

	cfg := core.ReplicationConfig{MaxLinkLoad: *mll, DCCapacity: *dcCap}
	cfg.LP.Logf = log.Logf(obs.LevelDebug)
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.Wall)
		cfg.Trace = tracer
	}
	if *mpsOut != "" {
		dumpMPS(sc, *arch, cfg, *mpsOut, log)
		if err := stopProf(); err != nil {
			log.Error("profile write failed", "err", err.Error())
		}
		return
	}
	var a *core.Assignment
	switch *arch {
	case "ingress":
		a = core.Ingress(sc)
	case "onpath":
		cfg.Mirror = core.MirrorNone
		a, err = core.SolveReplication(sc, cfg)
	case "replicate":
		cfg.Mirror = core.MirrorDCOnly
		a, err = core.SolveReplication(sc, cfg)
	case "onehop":
		cfg.Mirror = core.MirrorOneHop
		a, err = core.SolveReplication(sc, cfg)
	case "twohop":
		cfg.Mirror = core.MirrorTwoHop
		a, err = core.SolveReplication(sc, cfg)
	case "dc+onehop":
		cfg.Mirror = core.MirrorDCPlusOneHop
		a, err = core.SolveReplication(sc, cfg)
	case "augmented":
		cfg.Mirror = core.MirrorNone
		cfg.ExtraNodeCapacity = *dcCap / float64(g.NumNodes())
		a, err = core.SolveReplication(sc, cfg)
	default:
		log.Error("unknown architecture", "arch", *arch)
		os.Exit(2)
	}
	if err != nil {
		log.Error("solve failed", "err", err.Error())
		os.Exit(1)
	}

	fmt.Printf("%s / %s: %d PoPs, %d classes\n", g.Name(), *arch, g.NumNodes(), len(sc.Classes))
	if a.HasDC {
		fmt.Printf("datacenter attached at PoP %d (%s), capacity %gx\n", a.DCAttach, g.Node(a.DCAttach).Name, *dcCap)
	}
	fmt.Printf("max compute load:          %.4f (ingress-only baseline: 1.0000)\n", a.MaxLoad())
	fmt.Printf("max compute load (ex DC):  %.4f\n", a.MaxLoadExDC())
	fmt.Printf("max link load (incl. BG):  %.4f\n", a.MaxLinkLoad())
	fmt.Printf("coverage error:            %.2g\n", a.CoverageError())
	if a.Iterations > 0 {
		st := a.LPStats
		fmt.Printf("LP: %d iterations in %v\n", a.Iterations, a.SolveTime)
		fmt.Printf("LP: phase1=%d pivots (%v), phase2=%d pivots (%v), %d refactorizations, max residual %.3g\n",
			st.Phase1Pivots, st.Phase1Time.Round(1000), st.Phase2Pivots, st.Phase2Time.Round(1000),
			st.Refactorizations, st.MaxResidual)
	}
	core.RecordLPStats(reg, a.Iterations, a.SolveTime, a.LPStats)
	loads := reg.Histogram("node.load")
	for j := range a.NodeLoad {
		loads.Observe(a.NodeLoad[j][0])
	}
	reg.Gauge("node.load.max").Max(a.MaxLoad())
	if *metricsOut != "" {
		meta := map[string]any{
			"run": "nidsctl", "topology": g.Name(), "arch": *arch,
			"mll": *mll, "dc": *dcCap, "status": "optimal",
		}
		if err := reg.WriteJSONFile(*metricsOut, meta); err != nil {
			log.Error("metrics write failed", "err", err.Error())
			os.Exit(1)
		}
		log.Info("metrics written", "path", *metricsOut)
	}
	if *traceOut != "" {
		if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
			log.Error("trace write failed", "err", err.Error())
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}

	t := metrics.NewTable("Node", "Name", "Load")
	for j, row := range a.NodeLoad {
		name := "DC"
		if j < g.NumNodes() {
			name = g.Node(j).Name
		}
		t.AddRowf(j, name, row[0])
	}
	fmt.Println()
	fmt.Print(t.String())

	if *ranges {
		fmt.Println("\nper-node hash-range configurations (class → ranges):")
		cfgs := shim.CompileConfigs(a, 1)
		for j := 0; j < a.NumNIDS(); j++ {
			c := cfgs[j]
			if len(c.Rules) == 0 {
				continue
			}
			fmt.Printf("node %d: %d classes with local rules\n", j, len(c.Rules))
			n := 0
			for key, rules := range c.Rules {
				if n >= 5 {
					fmt.Printf("  ... (%d more classes)\n", len(c.Rules)-n)
					break
				}
				fmt.Printf("  class %d→%d:", key.SrcPoP, key.DstPoP)
				for _, r := range rules {
					fmt.Printf(" [%.3f,%.3f)%s", r.Lo, r.Hi, suffix(r))
				}
				fmt.Println()
				n++
			}
		}
	}
	if err := stopProf(); err != nil {
		log.Error("profile write failed", "err", err.Error())
	}
	if *listen != "" {
		fmt.Println("solve complete; telemetry endpoint stays up (interrupt to exit)")
		select {}
	}
}

// runWatch runs the online-controller service mode: the selected drifting
// workload is emulated on a virtual clock while the controller watches
// per-class load series, warm re-solves the LP on drift events, and pushes
// reconfigurations two-phase make-before-break onto the shim fleet.
func runWatch(g *topology.Graph, scenario string, sessions int, naive bool, reg *obs.Registry, log *obs.Logger, metricsOut string) {
	cfg, err := emulation.DriftScenario(scenario, g, sessions)
	if err != nil {
		log.Error("watch setup failed", "err", err.Error())
		os.Exit(2)
	}
	if naive {
		cfg.Planner = controller.NaivePlanner{}
	}
	cfg.Obs = reg
	cfg.Log = log
	res, err := emulation.RunDrift(*cfg)
	if err != nil {
		log.Error("watch run failed", "err", err.Error())
		os.Exit(1)
	}
	fmt.Printf("%s / watch %s: %d sessions, planner %s\n", g.Name(), scenario, res.Sessions, res.Planner)
	fmt.Printf("reconfigurations: %d (drift events: %d)\n", len(res.Reconfigs), res.DriftEvents)
	fmt.Printf("sessions moved:   %d (expected %.1f)\n", res.SessionsMoved, res.ExpectedSessionsMoved)
	fmt.Printf("detection parity: fleet %d / oracle %d (missed %d)\n", res.FleetDetected, res.OracleDetected, res.Missed)
	fmt.Printf("ownership errors: %d, counters reconciled: %v\n", res.OwnershipErrors, res.Reconciled)

	t := metrics.NewTable("Epoch", "Trigger", "Churn", "Moved", "Remaining", "Classes")
	for _, rc := range res.Reconfigs {
		t.AddRow(fmt.Sprintf("%d", rc.Epoch), rc.Trigger,
			fmt.Sprintf("%.4f", rc.PlannedChurn),
			fmt.Sprintf("%d", rc.SessionsMoved),
			fmt.Sprintf("%d", rc.SessionsRemaining),
			fmt.Sprintf("%d", rc.ClassesChanged))
	}
	fmt.Println()
	fmt.Print(t.String())

	fmt.Println("\ntimeline (virtual time):")
	epoch := time.Unix(0, 0).UTC()
	shown := res.Timeline
	const maxLines = 50
	if len(shown) > maxLines {
		shown = shown[:maxLines]
	}
	for _, ev := range shown {
		fmt.Printf("  %12s  %-8s %s\n", ev.T.Sub(epoch).Round(time.Microsecond), ev.Kind, ev.Detail)
	}
	if len(res.Timeline) > len(shown) {
		fmt.Printf("  ... (%d more events)\n", len(res.Timeline)-len(shown))
	}
	if metricsOut != "" {
		meta := map[string]any{
			"run": "nidsctl-watch", "topology": g.Name(), "scenario": scenario,
			"planner": res.Planner, "sessions": res.Sessions,
		}
		if err := reg.WriteJSONFile(metricsOut, meta); err != nil {
			log.Error("metrics write failed", "err", err.Error())
			os.Exit(1)
		}
		log.Info("metrics written", "path", metricsOut)
	}
}

func suffix(r shim.RangeRule) string {
	if r.Act == shim.Replicate {
		return fmt.Sprintf("→%d", r.Mirror)
	}
	return ""
}

// dumpMPS writes the selected architecture's LP instance in MPS format so
// it can be inspected or solved standalone (see cmd/lpsolve).
func dumpMPS(sc *core.Scenario, arch string, cfg core.ReplicationConfig, path string, log *obs.Logger) {
	switch arch {
	case "onpath":
		cfg.Mirror = core.MirrorNone
	case "replicate":
		cfg.Mirror = core.MirrorDCOnly
	case "onehop":
		cfg.Mirror = core.MirrorOneHop
	case "twohop":
		cfg.Mirror = core.MirrorTwoHop
	case "dc+onehop":
		cfg.Mirror = core.MirrorDCPlusOneHop
	default:
		log.Error("-mps supports LP-backed architectures only", "arch", arch)
		os.Exit(2)
	}
	prob, _, _, err := core.BuildReplicationProblem(sc, cfg)
	if err != nil {
		log.Error("problem build failed", "err", err.Error())
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Error("mps create failed", "err", err.Error())
		os.Exit(1)
	}
	defer f.Close()
	if err := lp.WriteMPS(f, prob); err != nil {
		log.Error("mps write failed", "err", err.Error())
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%s)\n", path, prob.Stats())
}
