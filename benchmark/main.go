// Command benchmark is the repository's benchmark: one process, closed
// loop, one operation in flight, that drives the control plane (scenario →
// LP → hash ranges → compiled shims; warm reconfiguration) and the data
// plane (emulation.Run, the bare packet path, emulation.RunDrift) through
// their exported functions, checks every output, and prints every metric
// by name with its unit. BENCHMARK.json at the repository root describes it
// to the driver; README.md in this directory explains the choices.
//
//	bash benchmark/run.sh                         # all workloads, both passes
//	bash benchmark/run.sh -workload pkt-small     # one workload, both passes
//	bash benchmark/run.sh -workload drift -trace 0 -seed 7 -seconds 20
//	bash benchmark/run.sh -selfcheck              # two sets, compared
//
// With -workload and -trace 0|1 the last line of standard output is the
// JSON object the driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int // 0: end-to-end pass, 1: traced pass, -1: both
	traceFile string
	scale     float64
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "seeds trace generation, the shim hash and the traffic-matrix draws")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time per workload and pass, set-up excluded")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; -1: both")
	flag.StringVar(&o.traceFile, "tracefile", "", "write the traced pass's spans here as Chrome trace_event JSON")
	flag.Float64Var(&o.scale, "scale", 1, "shrink the inputs (smoke runs); below 0.1 every topology becomes Internet2")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two end-to-end sets back to back and compare them against the bounds in BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < -1 || o.trace > 1 || o.seconds <= 0 || o.scale <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout))
}

// run executes the benchmark as configured and returns the exit code: 0
// only when every operation of every workload succeeded.
func run(o options, out io.Writer) int {
	var selected []workload
	for _, w := range workloads() {
		if o.workload == "" || o.workload == w.Name {
			selected = append(selected, w.scaled(o.scale))
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	header(out, o)
	if o.selfcheck {
		return selfcheck(o, selected, out)
	}

	var rec *recorder
	if o.trace != 0 {
		rec = newRecorder()
	}
	code := 0
	var last *report
	for _, w := range selected {
		if o.trace != 1 {
			last = runWorkload(w, o, nil)
			last.print(out, "end to end, tracing off")
			code = max(code, exitCode(last))
		}
		if o.trace != 0 {
			last = runWorkload(w, o, rec)
			last.print(out, "per layer, traced pass")
			code = max(code, exitCode(last))
		}
	}
	if rec != nil && o.traceFile != "" {
		if err := writeTrace(rec, o.traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	if len(selected) == 1 && o.trace >= 0 {
		if err := writeResult(out, last); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	return code
}

func exitCode(r *report) int {
	if r.Failed > 0 || r.Attempted == 0 {
		return 1
	}
	return 0
}

// header prints what a number depends on besides the code.
func header(out io.Writer, o options) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				rev = s.Value[:7]
			}
		}
	}
	fmt.Fprintf(out, "nwids benchmark · rev %s · %s · nproc %d · GOMAXPROCS %d · seed %d · scale %g · %gs per pass\n",
		rev, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.scale, o.seconds)
	fmt.Fprintln(out, "closed loop, one operation in flight, one goroutine; emulation.run_workers2 uses 2 workers and emulation.run_live loopback TCP")
}

// stages are the four measurements every workload goes through, on the
// workload's inputs.
type stages struct {
	install  *installStage
	reconfig *reconfigStage
	packets  *packetStage
	drift    *driftStage
}

// setup prepares every stage's inputs: everything generated or solved
// before the first timed sample.
func setup(w workload, seed int64) (*stages, error) {
	st := &stages{
		install:  &installStage{w: w, seed: seed},
		reconfig: &reconfigStage{w: w, seed: seed},
		packets:  &packetStage{w: w, seed: seed},
		drift:    &driftStage{w: w, seed: seed},
	}
	st.install.setup()
	if err := st.reconfig.setup(); err != nil {
		return nil, fmt.Errorf("set-up, reconfig: %w", err)
	}
	if err := st.packets.setup(); err != nil {
		return nil, fmt.Errorf("set-up, packets: %w", err)
	}
	if err := st.drift.setup(); err != nil {
		return nil, fmt.Errorf("set-up, drift: %w", err)
	}
	return st, nil
}

// setupRounds is how often the end-to-end pass sets up; set-up time is
// reported as the median so that one slow page-fault storm does not decide
// it. The traced pass does not report it and sets up once.
const setupRounds = 3

// runWorkload sets a workload up and runs one pass over it: the end-to-end
// pass when rec is nil, the traced pass otherwise.
func runWorkload(w workload, o options, rec *recorder) *report {
	rep := newReport(w.Name)
	if rec != nil {
		rec.workload = w.Name
	}
	var st *stages
	var setups []float64
	rounds := setupRounds
	if rec != nil {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		st = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = setup(w, o.seed); err != nil {
			rep.check(err)
			return rep
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if rec == nil {
		rep.timing("setup_s", "s", setups, 1)
		ss := []*sampler{
			st.install.sampler(w.share(install), rep),
			st.reconfig.sampler(w.share(reconfig), rep),
			st.drift.sampler(w.share(drift), rep),
		}
		ss = append(ss, st.packets.samplers(w.share(packets), rep)...)
		schedule(time.Duration(o.seconds*float64(time.Second)), ss)
		st.install.finish(rep)
		st.reconfig.finish(rep)
		st.packets.finish(rep)
		st.drift.finish(rep)
		return rep
	}

	budget := func(s stage) time.Duration {
		return time.Duration(w.share(s) * o.seconds * float64(time.Second))
	}
	// Traced pass. Each stage returns the median time of its operation
	// traced and untraced; their sums give the price of tracing.
	var traced, plain float64
	add := func(t, p float64) { traced, plain = traced+t, plain+p }
	add(st.install.traced(budget(install), rec, rep))
	st.install = nil
	add(st.reconfig.traced(budget(reconfig), rec, rep))
	st.reconfig = nil
	add(st.packets.traced(budget(packets), rec, rep))
	st.packets = nil
	add(st.drift.traced(budget(drift), rec, rep))
	rep.value("trace_overhead_ratio", "ratio", ratio(traced, plain))
	return rep
}

func writeTrace(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.writeChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(out io.Writer, r *report) error {
	res := result{
		Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]resultValue, len(r.Metrics)),
	}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		res.Metrics[m.Name] = resultValue{Value: m.Median, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
