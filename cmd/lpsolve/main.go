// Command lpsolve solves a linear program in free-format MPS using the
// repository's sparse revised simplex — handy for inspecting the LP
// instances the controller generates (nidsctl can dump them via -mps) or
// for using the solver standalone.
//
// Usage:
//
//	lpsolve [-v] [-maxiter N] [-metrics out.json] problem.mps
//	cat problem.mps | lpsolve -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nwids/internal/core"
	"nwids/internal/lp"
	"nwids/internal/obs"
)

func main() {
	verbose := flag.Bool("v", false, "log solver progress (JSONL on stderr)")
	maxIter := flag.Int("maxiter", 0, "iteration limit (0: automatic)")
	printSol := flag.Bool("x", false, "print nonzero variable values")
	metricsOut := flag.String("metrics", "", "write solve metrics to this JSON file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of the solve phases to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	level := obs.LevelWarn
	if *verbose {
		level = obs.LevelDebug
	}
	log := obs.NewLogger(os.Stderr, level)

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lpsolve [flags] <file.mps | ->")
		os.Exit(2)
	}
	stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		log.Error("profiling setup failed", "err", err.Error())
		os.Exit(1)
	}

	var r io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			log.Error("open failed", "err", err.Error())
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	p, err := lp.ReadMPS(r)
	if err != nil {
		log.Error("MPS parse failed", "err", err.Error())
		os.Exit(1)
	}
	log.Info("problem loaded", "stats", p.Stats())
	opts := lp.Options{MaxIterations: *maxIter, Logf: log.Logf(obs.LevelDebug)}
	var tracer *obs.Tracer
	var solveSpan *obs.TraceSpan
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.Wall)
		solveSpan = tracer.StartSpan("lp.solve").Arg("problem", p.Name())
		opts.StartSpan = solveSpan.Hook()
	}
	sol := lp.Solve(p, opts)
	solveSpan.Arg("status", sol.Status.String()).End()
	fmt.Printf("status:     %v\n", sol.Status)
	if sol.Status == lp.Optimal {
		fmt.Printf("objective:  %.10g\n", sol.Objective)
	}
	st := sol.Stats
	fmt.Printf("iterations: %d (refactorizations: %d) in %v\n", sol.Iterations, sol.Refactorizations, sol.SolveTime)
	fmt.Printf("pivots:     phase1=%d (%v) phase2=%d (%v) flips=%d degenerate=%d\n",
		st.Phase1Pivots, st.Phase1Time.Round(1000), st.Phase2Pivots, st.Phase2Time.Round(1000), st.BoundFlips, st.DegenerateSteps)
	fmt.Printf("numerics:   bland-activations=%d max-eta=%d max-residual=%.3g\n",
		st.BlandActivations, st.MaxEtaAtRefactor, st.MaxResidual)
	if *printSol && sol.Status == lp.Optimal {
		for j := 0; j < p.NumVars(); j++ {
			if v := sol.X[j]; v != 0 {
				fmt.Printf("%s = %.10g\n", p.VarName(lp.Var(j)), v)
			}
		}
	}
	if *metricsOut != "" {
		reg := obs.NewRegistry()
		core.RecordLPStats(reg, sol.Iterations, sol.SolveTime, sol.Stats)
		meta := map[string]any{"run": "lpsolve", "problem": p.Name(), "status": sol.Status.String()}
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
		log.Info("trace written", "path", *traceOut)
	}
	if err := stopProf(); err != nil {
		log.Error("profile write failed", "err", err.Error())
	}
	if sol.Status != lp.Optimal {
		os.Exit(1)
	}
}
