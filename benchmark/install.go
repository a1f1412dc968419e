package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"nwids/internal/core"
	"nwids/internal/lp"
	"nwids/internal/obs"
	"nwids/internal/shim"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// expectedJSON holds the LP objectives of the seed-1 inputs at the commit
// that defined the benchmark, keyed by objectiveKey. A solver change that
// moves one of them by more than 1e-6 relative changed the answer, not
// just the speed.
//
//go:embed expected.json
var expectedJSON []byte

var expectedObjectives = func() map[string]float64 {
	out := make(map[string]float64)
	if err := json.Unmarshal(expectedJSON, &out); err != nil {
		panic("benchmark: expected.json: " + err.Error()) // embedded file: only a bad commit can break it
	}
	return out
}()

func objectiveKey(topo string, c core.ReplicationConfig) string {
	return fmt.Sprintf("%s/%s/link%g/dc%g", topo, c.Mirror, c.MaxLinkLoad, c.DCCapacity)
}

// lpTopos are the topologies whose cold solve time is reported by name.
var lpTopos = []string{"Geant", "TiNet", "Telstra", "Sprint"}

// installStage measures scenario → solved → configs → compiled shims, cold,
// summed over the workload's topologies and matrix draws.
type installStage struct {
	w      workload
	seed   int64
	inputs []installInput
	sets   []float64 // end-to-end samples: seconds per set
}

type installInput struct {
	name string
	g    *topology.Graph
	tm   *traffic.Matrix
}

func (s *installStage) setup() {
	s.inputs = s.inputs[:0]
	for _, name := range s.w.InstallTopos {
		g := topology.ByName(name)
		for _, tm := range baseMatrices(g, s.seed, s.w.InstallDraws) {
			s.inputs = append(s.inputs, installInput{name: name, g: g, tm: tm})
		}
	}
}

// installed is what one topology's install leaves behind.
type installed struct {
	a     *core.Assignment
	parts map[shim.ClassKey][]shim.OwnedRange
	shims []*shim.Shim
	secs  float64
}

// install runs one topology through the pipeline the controller runs for
// its initial epoch. With a recorder each step gets a span, and the
// program's own model.build / lp.solve / extract spans are adopted under
// core.solve.
func (s *installStage) install(in installInput, rec *recorder) (installed, error) {
	repl := ctlRepl
	if rec != nil {
		repl.Trace = obs.NewTracer(nil)
	}
	t0 := time.Now()
	root := rec.begin("install")
	defer rec.end(root)

	id := rec.begin("core.scenario")
	sc := core.NewScenario(in.g, in.tm, core.ScenarioOptions{})
	rec.end(id)

	id = rec.begin("core.solve")
	a, err := core.SolveReplication(sc, repl)
	rec.end(id)
	rec.adopt(id, repl.Trace.Spans())
	if err != nil {
		return installed{}, err
	}

	id = rec.begin("shim.partition")
	parts := shim.PartitionAll(a)
	rec.end(id)

	id = rec.begin("shim.configs")
	cfgs := shim.ConfigsFromPartitions(a, hashSeed(s.seed), parts)
	rec.end(id)

	id = rec.begin("shim.compile")
	shims := make([]*shim.Shim, a.NumNIDS())
	for j := range shims {
		shims[j] = shim.New(cfgs[j])
	}
	rec.end(id)
	return installed{a: a, parts: parts, shims: shims, secs: time.Since(t0).Seconds()}, nil
}

// verify checks one install: full coverage, valid partitions, and for seed
// 1 the recorded objective.
func (s *installStage) verify(in installInput, got installed) error {
	if e := got.a.CoverageError(); e > 1e-6 {
		return fmt.Errorf("install %s: coverage error %g", in.name, e)
	}
	for key, p := range got.parts {
		if err := shim.CheckPartition(p); err != nil {
			return fmt.Errorf("install %s: class %v: %w", in.name, key, err)
		}
	}
	if s.seed == 1 {
		key := objectiveKey(in.name, ctlRepl)
		want, ok := expectedObjectives[key]
		if !ok {
			return fmt.Errorf("install %s: no expected objective for %s", in.name, key)
		}
		if math.Abs(got.a.Objective-want) > 1e-6*math.Abs(want) {
			return fmt.Errorf("install %s: objective %.12g, expected %.12g", in.name, got.a.Objective, want)
		}
	}
	return nil
}

// set installs every topology once and returns the summed time and the
// per-topology results; each install is one attempted operation.
func (s *installStage) set(rec *recorder, rep *report) (float64, []installed) {
	var total float64
	out := make([]installed, len(s.inputs))
	for i, in := range s.inputs {
		got, err := s.install(in, rec)
		if err == nil {
			err = s.verify(in, got)
		}
		rep.check(err)
		out[i] = got
		total += got.secs
	}
	return total, out
}

// sampler takes end-to-end samples of the set. A set of small topologies
// takes milliseconds, about the length of one garbage collection; such a
// sample repeats the set for a tenth of a second, so that a collection
// landing in it does not decide it.
func (s *installStage) sampler(share float64, rep *report) *sampler {
	const minSample = 100 * time.Millisecond
	return &sampler{share: share, floor: 5, take: func() {
		var total float64
		n := 0
		for start := time.Now(); n == 0 || time.Since(start) < minSample; n++ {
			secs, _ := s.set(nil, rep)
			total += secs
		}
		s.sets = append(s.sets, total/float64(n))
	}}
}

func (s *installStage) finish(rep *report) { rep.timing("install_s", "s", s.sets, 1) }

// traced alternates traced and untraced sets. The layer table comes from
// the traced sets' self times and the solver's own statistics; the return
// values are the median traced and untraced set times.
func (s *installStage) traced(budget time.Duration, rec *recorder, rep *report) (float64, float64) {
	from := len(rec.spans)
	var last []installed
	solve := make(map[string][]float64)
	var phase1, phase2 []float64
	tracedSecs, plainSecs := pairs(budget, 1, func(i int) float64 {
		rec.rep = i
		total, got := s.set(rec, rep)
		last = got
		var p1, p2 float64
		for j, in := range s.inputs {
			if got[j].a == nil {
				continue
			}
			solve[in.name] = append(solve[in.name], got[j].a.SolveTime.Seconds())
			p1 += got[j].a.LPStats.Phase1Time.Seconds()
			p2 += got[j].a.LPStats.Phase2Time.Seconds()
		}
		phase1, phase2 = append(phase1, p1), append(phase2, p2)
		return total
	}, func(int) float64 {
		total, _ := s.set(nil, rep)
		return total
	})
	n := len(tracedSecs)

	layers := map[string][]float64{}
	selfByRep := selfByName(rec.spans[from:])
	for r := 0; r < n; r++ {
		self := selfByRep[r]
		for _, name := range []string{"core.scenario", "model.build", "extract", "shim.partition", "shim.configs", "shim.compile"} {
			layers[name] = append(layers[name], self[name])
		}
	}
	rep.timing("core.scenario_s", "s", layers["core.scenario"], 1)
	rep.timing("core.build_s", "s", layers["model.build"], 1)
	rep.timing("core.extract_s", "s", layers["extract"], 1)
	for _, name := range lpTopos {
		rep.timing("lp.solve_s."+name, "s", solve[name], 1) // 0 when the workload does not solve it
	}
	rep.timing("lp.phase1_s", "s", phase1, 1)
	rep.timing("lp.phase2_s", "s", phase2, 1)

	// Solver counts repeat exactly from one repetition to the next, so the
	// last set speaks for all of them.
	var st lp.SolveStats
	var lpSecs float64
	for _, got := range last {
		if got.a == nil {
			continue
		}
		ls := got.a.LPStats
		st.Phase1Pivots += ls.Phase1Pivots
		st.Phase2Pivots += ls.Phase2Pivots
		st.DegenerateSteps += ls.DegenerateSteps
		st.Refactorizations += ls.Refactorizations
		st.MaxEtaAtRefactor = max(st.MaxEtaAtRefactor, ls.MaxEtaAtRefactor)
		lpSecs += got.a.SolveTime.Seconds()
	}
	rep.value("lp.pivots", "count", float64(st.Pivots()))
	rep.value("lp.pivots_per_s", "1/s", ratio(float64(st.Pivots()), lpSecs))
	rep.value("lp.refactorizations", "count", float64(st.Refactorizations))
	rep.value("lp.max_eta", "count", float64(st.MaxEtaAtRefactor))
	rep.value("lp.degenerate_ratio", "ratio", ratio(float64(st.DegenerateSteps), float64(st.Pivots())))

	rep.timing("shim.partition_s", "s", layers["shim.partition"], 1)
	rep.timing("shim.configs_s", "s", layers["shim.configs"], 1)
	rep.timing("shim.compile_s", "s", layers["shim.compile"], 1)
	return summarize(tracedSecs).Median, summarize(plainSecs).Median
}
