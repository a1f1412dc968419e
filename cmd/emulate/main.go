// Command emulate runs the Emulab-style emulation (§8.1, Fig 10): it solves
// a replication assignment for a topology, compiles shim configurations,
// replays a generated session trace through the network, and prints per-
// node work units, shim counters and detection results. With -live,
// replication uses real TCP tunnels on the loopback interface. With
// -metrics, the run leaves a machine-readable JSON artifact (per-node work
// histograms, shim dispatch counters, tunnel bytes, solver stats, and the
// tick-granularity timeline series). With -trace, the solve pipeline and
// packet path are exported as a Chrome trace_event file; with -listen, the
// registry is served live on /metrics (OpenMetrics) plus /healthz and
// pprof, and the process stays up after the run until interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/metrics"
	"nwids/internal/obs"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

func main() {
	topo := flag.String("topology", "Internet2", "evaluation topology")
	sessions := flag.Int("sessions", 4000, "emulated session count")
	dcCap := flag.Float64("dc", 8, "DC capacity multiple (0 = on-path only)")
	mll := flag.Float64("mll", 0.4, "max allowed link load")
	live := flag.Bool("live", false, "replicate over real TCP tunnels")
	seed := flag.Int64("seed", 1, "trace generation seed")
	saveTrace := flag.String("save-trace", "", "also write the generated session trace to this file")
	verbose := flag.Bool("v", false, "log progress (JSONL on stderr)")
	metricsOut := flag.String("metrics", "", "write run metrics to this JSON file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file (about:tracing / Perfetto) to this path")
	listen := flag.String("listen", "", "serve /metrics, /healthz and pprof on this address (e.g. localhost:9090) and stay up after the run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	level := obs.LevelWarn
	if *verbose {
		level = obs.LevelDebug
	}
	log := obs.NewLogger(os.Stderr, level)
	stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		log.Error("profiling setup failed", "err", err.Error())
		os.Exit(1)
	}

	g := topology.ByName(*topo)
	if g == nil {
		log.Error("unknown topology", "topology", *topo)
		os.Exit(2)
	}
	// One virtual clock drives the tracer and the emulation, which stamps
	// its timeline samples from it, so every span and sample timestamp is
	// deterministic for a given workload.
	vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(vc)
	}
	if *listen != "" {
		addr, err := obs.ServeTelemetry(*listen, reg, nil)
		if err != nil {
			log.Error("telemetry server failed", "err", err.Error())
			os.Exit(1)
		}
		fmt.Printf("telemetry serving on http://%s/metrics\n", addr)
	}
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	cfg := core.ReplicationConfig{MaxLinkLoad: *mll, DCCapacity: *dcCap, Mirror: core.MirrorDCOnly}
	if *dcCap == 0 {
		cfg = core.ReplicationConfig{Mirror: core.MirrorNone}
	}
	cfg.Trace = tracer
	a, err := core.SolveReplication(sc, cfg)
	if err != nil {
		log.Error("replication solve failed", "err", err.Error())
		os.Exit(1)
	}
	log.Debug("assignment solved", "iterations", a.Iterations, "max_load", a.MaxLoad())

	runCfg := emulation.Config{
		Assignment:    a,
		TotalSessions: *sessions,
		GenSeed:       *seed,
		Live:          *live,
		Obs:           reg,
		Log:           log,
		Clock:         vc,
		Trace:         tracer,
	}
	res, err := emulation.Run(runCfg)
	if err != nil {
		log.Error("emulation failed", "err", err.Error())
		os.Exit(1)
	}
	if *saveTrace != "" {
		if err := emulation.SaveTrace(*saveTrace, a, *sessions, *seed); err != nil {
			log.Error("trace write failed", "err", err.Error())
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *saveTrace)
	}

	mode := "in-process"
	if *live {
		mode = "live TCP tunnels"
	}
	fmt.Printf("%s: %d sessions, %s replication\n", g.Name(), res.Sessions, mode)
	fmt.Printf("malicious sessions: %d, detected: %d\n", res.MaliciousSessions, res.DetectedSessions)
	fmt.Printf("ownership errors:   %d (must be 0)\n\n", res.OwnershipErrors)

	t := metrics.NewTable("Node", "Work", "Packets", "Processed", "Replicated", "TunnelBytes", "Alerts")
	for _, n := range res.Nodes {
		label := fmt.Sprintf("%d", n.Node)
		if n.IsDC {
			label = "DC"
		}
		t.AddRowf(label, n.WorkUnits, n.Packets, n.Processed, n.Replicated, n.TunnelBytes, n.Alerts)
	}
	fmt.Print(t.String())
	fmt.Printf("\nmax non-DC work: %d, total work: %d\n", res.MaxWorkExDC(), res.TotalWork())

	if *metricsOut != "" {
		// Fold the solver's instrumentation into the same artifact.
		core.RecordLPStats(reg, a.Iterations, a.SolveTime, a.LPStats)
		meta := map[string]any{
			"run": "emulate", "topology": g.Name(), "sessions": *sessions,
			"live": *live, "seed": *seed, "dc": *dcCap, "mll": *mll,
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
	if err := stopProf(); err != nil {
		log.Error("profile write failed", "err", err.Error())
	}
	if *listen != "" {
		fmt.Println("run complete; telemetry endpoint stays up (interrupt to exit)")
		select {}
	}
}
