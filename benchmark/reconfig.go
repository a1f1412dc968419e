package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nwids/internal/controller"
	"nwids/internal/core"
	"nwids/internal/shim"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// ctlSigma is the log-sigma of the traffic matrices the controller is asked
// to re-solve for, around the base it was built on.
const ctlSigma = 0.2

// maxProposals is how many traffic matrices set-up draws (a longer run
// goes round them again) and bounds a traced pass; p95 needs samplesFor(95).
const maxProposals = 400

// reconfigStage measures the online control loop: one Propose (warm
// re-solve, plan, merge, merged push) plus one Confirm (clean push) per
// drifted traffic matrix, through a fleet of real shims.
type reconfigStage struct {
	w    workload
	seed int64

	base     *core.Scenario
	matrices []*traffic.Matrix
	fleet    *timedFleet
	ctl      *controller.Controller
	next     int // next matrix to propose

	latency []float64 // end-to-end samples: seconds per Propose+Confirm
}

// timedFleet is the benchmark's controller.Fleet: all-or-nothing like the
// emulation's (validate every config, then install), and it times itself,
// since a push is the one part of a reconfiguration the controller does not
// do in its own code.
type timedFleet struct {
	shims  map[int]*shim.Shim
	rec    *recorder
	merged []float64 // seconds per merged push
	clean  []float64 // seconds per clean push
}

func (f *timedFleet) Apply(_ int, phase controller.FleetPhase, cfgs map[int]*shim.Config) error {
	t0 := time.Now()
	id := f.rec.begin("controller.fleet_apply")
	defer f.rec.end(id)
	nodes := make([]int, 0, len(cfgs))
	for node := range cfgs {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		if sh, ok := f.shims[node]; ok {
			if err := sh.CheckConfig(cfgs[node]); err != nil {
				return fmt.Errorf("node %d: %w", node, err)
			}
		}
	}
	for _, node := range nodes {
		sh, ok := f.shims[node]
		if !ok {
			f.shims[node] = shim.New(cfgs[node])
			continue
		}
		if err := sh.SetConfig(cfgs[node]); err != nil {
			return fmt.Errorf("node %d: %w", node, err)
		}
	}
	secs := time.Since(t0).Seconds()
	if phase == controller.PhaseMerged {
		f.merged = append(f.merged, secs)
	} else {
		f.clean = append(f.clean, secs)
	}
	return nil
}

func (s *reconfigStage) setup() error {
	// The base is the plain gravity matrix for every seed: the seed shows
	// in the matrices proposed, and a percentile over hundreds of them is
	// steady where a different base per seed would move the whole
	// distribution.
	g := topology.ByName(s.w.CtlTopo)
	tm := traffic.GravityDefault(g)
	s.base = core.NewScenario(g, tm, core.ScenarioOptions{})
	rng := rand.New(rand.NewSource(s.seed))
	s.matrices = traffic.VariabilityModel{Sigma: ctlSigma}.Generate(rng, tm, maxProposals)
	s.fleet = &timedFleet{shims: make(map[int]*shim.Shim)}
	s.next = 0
	var err error
	s.ctl, err = controller.New(s.base, s.fleet, controller.Config{Seed: hashSeed(s.seed), Replication: ctlRepl})
	return err
}

// step runs one reconfiguration and returns the seconds spent in Propose
// and in Confirm. Each is one attempted operation; a rejected proposal or
// a failed confirm fails it.
func (s *reconfigStage) step(rec *recorder, rep *report) (propose, confirm float64, tr *controller.Transition) {
	tm := s.matrices[s.next%len(s.matrices)]
	s.next++
	t0 := time.Now()
	id := rec.begin("controller.propose")
	tr, err := s.ctl.Propose(s.base.WithMatrix(tm), "bench")
	rec.end(id)
	t1 := time.Now()
	if err == nil {
		id = rec.begin("controller.confirm")
		_, err = s.ctl.Confirm()
		rec.end(id)
	}
	t2 := time.Now()
	rep.check(err)
	return t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), tr
}

// steps reconfigures until budget is spent, at least lo times.
func (s *reconfigStage) steps(budget time.Duration, lo int, rec *recorder, rep *report) (propose, confirm []float64, trs []*controller.Transition) {
	start := time.Now()
	for i := 0; i < maxProposals; i++ {
		if i >= lo && overrun(start, i, budget) {
			break
		}
		p, c, tr := s.step(rec, rep)
		propose, confirm, trs = append(propose, p), append(confirm, c), append(trs, tr)
	}
	return propose, confirm, trs
}

// stepsPerSample is how many reconfigurations one turn of the end-to-end
// sampler runs, so that turns interleave with the other stages' samples.
const stepsPerSample = 25

func (s *reconfigStage) sampler(share float64, rep *report) *sampler {
	floor := (samplesFor(95) + stepsPerSample - 1) / stepsPerSample
	return &sampler{share: share, floor: floor, take: func() {
		for i := 0; i < stepsPerSample; i++ {
			p, c, _ := s.step(nil, rep)
			s.latency = append(s.latency, p+c)
		}
	}}
}

func (s *reconfigStage) finish(rep *report) {
	rep.timing("reconfig_p50_ms", "ms", s.latency, 1e3)
	rep.pctl("reconfig_p95_ms", "ms", s.latency, 95, 1e3)
}

// traced splits the reconfiguration by layer: the two controller calls
// timed apart, the fleet pushes timed from inside the fleet, and the same
// matrices solved again on a private warm solver to isolate the LP from
// the planner, merge and push around it.
func (s *reconfigStage) traced(budget time.Duration, rec *recorder, rep *report) (float64, float64) {
	lo := samplesFor(95)

	// A short untraced stretch first gives the overhead ratio its base.
	plainP, plainC, _ := s.steps(budget/20, 10, nil, rep)

	s.fleet.rec, s.fleet.merged, s.fleet.clean = rec, nil, nil
	first := s.next
	propose, confirm, trs := s.steps(budget/2, lo, rec, rep)
	s.fleet.rec = nil

	rep.timing("controller.propose_ms_p50", "ms", propose, 1e3)
	rep.pctl("controller.propose_ms_p95", "ms", propose, 95, 1e3)
	rep.timing("controller.confirm_ms_p50", "ms", confirm, 1e3)
	rep.timing("controller.fleet_apply_ms_p50", "ms", append(append([]float64(nil), s.fleet.merged...), s.fleet.clean...), 1e3)

	// Second pass: the same matrices, in the same order, on a solver of
	// the benchmark's own, warmed by one solve of the base scenario exactly
	// as controller.New warms the controller's.
	var resolve, pivots []float64
	var skips, hits int
	solver, err := core.NewReplicationSolver(s.base, ctlRepl)
	if err == nil {
		_, err = solver.Solve()
	}
	if err != nil {
		rep.check(fmt.Errorf("private solver: %w", err))
	} else {
		for i := range propose {
			sv := s.base.WithMatrix(s.matrices[(first+i)%len(s.matrices)])
			id := rec.begin("core.resolve")
			t0 := time.Now()
			err := solver.SetScenario(sv)
			var a *core.Assignment
			if err == nil {
				a, err = solver.Solve()
			}
			secs := time.Since(t0).Seconds()
			rec.end(id)
			rep.check(err)
			if err != nil {
				continue
			}
			resolve = append(resolve, secs)
			pivots = append(pivots, float64(a.LPStats.Pivots()))
			skips += a.LPStats.Phase1Skips
			hits += a.LPStats.WarmStartHits
		}
	}
	rep.timing("core.resolve_ms_p50", "ms", resolve, 1e3)
	rep.pctl("core.resolve_ms_p95", "ms", resolve, 95, 1e3)
	rep.value("controller.plan_merge_ms_p50", "ms",
		1e3*(summarize(propose).Median-summarize(resolve).Median-summarize(s.fleet.merged).Median))
	rep.value("lp.warm.pivots_per_solve", "count", mean(pivots))
	rep.value("lp.warm.phase1_skip_ratio", "ratio", ratio(float64(skips), float64(len(resolve))))
	rep.value("lp.warm.hit_ratio", "ratio", ratio(float64(hits), float64(len(resolve))))

	var churn, changed []float64
	rejected := 0
	for _, tr := range trs {
		if tr == nil {
			rejected++
			continue
		}
		churn = append(churn, tr.Churn)
		changed = append(changed, float64(tr.ClassesChanged))
	}
	rep.value("controller.churn_mean", "ratio", mean(churn))
	rep.value("controller.classes_changed_mean", "count", mean(changed))
	rep.value("controller.reject_ratio", "ratio", ratio(float64(rejected), float64(len(trs))))
	return summarize(propose).Median + summarize(confirm).Median, summarize(plainP).Median + summarize(plainC).Median
}
