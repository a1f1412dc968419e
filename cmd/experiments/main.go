// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-workers N] [-topologies a,b,c] [-seed N] [-metrics out.json] <experiment>...
//
// where each <experiment> is one of: table1, fig10, fig11, fig12, fig13,
// fig14, fig15, fig16, fig17, fig18, fig19, placement, robustness, drift,
// all.
//
// Sweep points run on a bounded worker pool (-workers; default GOMAXPROCS)
// and aggregate in deterministic sweep order, so rendered output is
// byte-identical for every worker count (-notime also suppresses the
// wall-clock in section headers, giving fully diffable output).
//
// With -metrics, every run leaves a machine-readable JSON artifact
// containing solver statistics (lp.* counters), per-node load histograms
// (node.load), sweep-engine counters (sweep.*) and emulation measurements
// (emulation.*, shim.*) — the data behind the rendered tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nwids/internal/experiments"
	"nwids/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sweep densities for a fast pass")
	workers := flag.Int("workers", 0, "parallel sweep width: max concurrent sweep points (0 = GOMAXPROCS, 1 = sequential)")
	notime := flag.Bool("notime", false, "omit wall-clock times from section headers (byte-identical reruns)")
	topos := flag.String("topologies", "", "comma-separated topology subset (default: all eight)")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "log progress (JSONL on stderr)")
	coldlp := flag.Bool("coldlp", false, "disable warm-start basis chaining; every LP solves from scratch (output must match the default)")
	metricsOut := flag.String("metrics", "", "write run metrics to this JSON file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file (one span per experiment) to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	level := obs.LevelWarn
	if *verbose {
		level = obs.LevelDebug
	}
	log := obs.NewLogger(os.Stderr, level)

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <table1|fig10|...|fig19|placement|robustness|all>...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		log.Error("profiling setup failed", "err", err.Error())
		os.Exit(1)
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed, Workers: *workers, ColdLP: *coldlp, Logf: log.Logf(obs.LevelDebug)}
	if *topos != "" {
		opts.Topologies = strings.Split(*topos, ",")
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		opts.Obs = reg
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.Wall)
	}

	var names []string
	for _, which := range flag.Args() {
		if which == "all" {
			names = append(names, "table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "placement", "robustness", "drift")
			continue
		}
		names = append(names, which)
	}
	if err := runAll(names, opts, os.Stdout, log, !*notime, tracer); err != nil {
		log.Error("experiment failed", "err", err.Error())
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
			log.Error("trace write failed", "err", err.Error())
			os.Exit(1)
		}
		log.Info("trace written", "path", *traceOut)
	}
	if *metricsOut != "" {
		meta := map[string]any{
			"run":         "experiments",
			"experiments": names,
			"seed":        *seed,
			"quick":       *quick,
			"workers":     *workers,
			"started":     time.Now().UTC().Format(time.RFC3339),
		}
		if err := reg.WriteJSONFile(*metricsOut, meta); err != nil {
			log.Error("metrics write failed", "err", err.Error())
			os.Exit(1)
		}
		log.Info("metrics written", "path", *metricsOut)
	}
	if err := stopProf(); err != nil {
		log.Error("profile write failed", "err", err.Error())
	}
}

// runAll executes the named experiments in order, printing each rendering
// to w. Per-experiment wall time is recorded into opts.Obs under
// experiment.<name>; showTime controls whether it also appears in the
// section header (disable it for byte-identical determinism diffs). A
// non-nil tracer records one span per experiment.
func runAll(names []string, opts experiments.Options, w io.Writer, log *obs.Logger, showTime bool, tracer *obs.Tracer) error {
	for _, name := range names {
		start := time.Now()
		sp := tracer.StartSpan("experiment." + name)
		out, err := run(name, opts)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)
		opts.Obs.Timer("experiment." + name).ObserveDuration(elapsed)
		log.Debug("experiment done", "name", name, "seconds", elapsed.Seconds())
		if showTime {
			fmt.Fprintf(w, "== %s (%v) ==\n%s\n", name, elapsed.Round(time.Millisecond), out)
		} else {
			fmt.Fprintf(w, "== %s ==\n%s\n", name, out)
		}
	}
	return nil
}

func run(name string, opts experiments.Options) (string, error) {
	switch name {
	case "table1":
		rows, err := experiments.Table1(opts)
		if err != nil {
			return "", err
		}
		return experiments.RenderTable1(rows), nil
	case "fig10":
		r, err := experiments.Fig10(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig11":
		r, err := experiments.Fig11(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig12":
		r, err := experiments.Fig12(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig13":
		r, err := experiments.Fig13(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig14":
		r, err := experiments.Fig14(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig15":
		r, err := experiments.Fig15(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig16":
		r, err := experiments.Fig1617(opts)
		if err != nil {
			return "", err
		}
		return r.RenderMiss(), nil
	case "fig17":
		r, err := experiments.Fig1617(opts)
		if err != nil {
			return "", err
		}
		return r.RenderLoad(), nil
	case "fig18":
		r, err := experiments.Fig18(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig19":
		rows, err := experiments.Fig19(opts)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig19(rows), nil
	case "placement":
		rows, err := experiments.Placement(opts)
		if err != nil {
			return "", err
		}
		return experiments.RenderPlacement(rows), nil
	case "robustness":
		r, err := experiments.Robustness(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "ablation":
		rows, err := experiments.Ablation(opts)
		if err != nil {
			return "", err
		}
		return experiments.RenderAblation(rows), nil
	case "sigmasweep":
		r, err := experiments.SigmaSweep(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "footprint":
		r, err := experiments.FootprintSensitivity(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "drift":
		r, err := experiments.Drift(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", name)
	}
}
