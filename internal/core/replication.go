package core

import (
	"fmt"
	"math"
	"time"

	"nwids/internal/lp"
	"nwids/internal/obs"
	"nwids/internal/topology"
)

// MirrorPolicy selects the candidate mirror sets M_j (§4).
type MirrorPolicy int

// Mirror policies.
const (
	// MirrorNone disables replication: pure on-path distribution [29]
	// ("Path, No Replicate").
	MirrorNone MirrorPolicy = iota
	// MirrorDCOnly replicates only to the datacenter node ("DC Only").
	MirrorDCOnly
	// MirrorOneHop allows local offload to one-hop neighbors.
	MirrorOneHop
	// MirrorTwoHop allows local offload to one- and two-hop neighbors.
	MirrorTwoHop
	// MirrorDCPlusOneHop combines the datacenter with one-hop offload
	// ("DC + One-hop").
	MirrorDCPlusOneHop
)

// String implements fmt.Stringer.
func (m MirrorPolicy) String() string {
	switch m {
	case MirrorNone:
		return "none"
	case MirrorDCOnly:
		return "dc-only"
	case MirrorOneHop:
		return "one-hop"
	case MirrorTwoHop:
		return "two-hop"
	case MirrorDCPlusOneHop:
		return "dc+one-hop"
	default:
		return fmt.Sprintf("mirror(%d)", int(m))
	}
}

func (m MirrorPolicy) usesDC() bool { return m == MirrorDCOnly || m == MirrorDCPlusOneHop }

// ReplicationConfig parameterizes the replication formulation (§4).
type ReplicationConfig struct {
	// Mirror selects the mirror sets M_j.
	Mirror MirrorPolicy
	// MaxLinkLoad bounds the link utilization induced by replication
	// (default 0.4, the paper's recommended operating point).
	MaxLinkLoad float64
	// DCCapacity is the datacenter capacity as a multiple of a single NIDS
	// node's capacity (α, default 10). Only used when Mirror uses a DC.
	DCCapacity float64
	// DCAttach pins the datacenter to a specific PoP when DCAttachFixed is
	// true; otherwise the PoP observing the most traffic is used, the
	// paper's preferred placement (§8.2).
	DCAttach      int
	DCAttachFixed bool
	// ExtraNodeCapacity adds this fraction of the base capacity to every
	// PoP NIDS node; "Path, Augmented" uses DCCapacity/N here instead of
	// deploying a datacenter.
	ExtraNodeCapacity float64
	// NodeWeights optionally weights the min-max objective per NIDS node
	// (§4 Extensions: "weighted combinations of the Load values"): the
	// objective becomes max_j w_j·Load_j. Indexed by NIDS node (the DC, at
	// index NumNodes, included when present); missing or nonpositive
	// entries default to 1.
	NodeWeights []float64
	// LP passes through solver options.
	LP lp.Options
	// Trace, when non-nil, records the solve pipeline (model build → LP
	// phases → extract) as nested spans. nil disables tracing at zero cost.
	Trace *obs.Tracer
}

func (c ReplicationConfig) withDefaults() ReplicationConfig {
	if c.MaxLinkLoad == 0 {
		c.MaxLinkLoad = 0.4
	}
	if c.DCCapacity == 0 {
		c.DCCapacity = 10
	}
	return c
}

// ActionFrac is one component of a class's processing assignment.
type ActionFrac struct {
	// Node is the NIDS node that processes this fraction (DC index =
	// Graph.NumNodes() when a datacenter is deployed).
	Node int
	// Via is the on-path node that replicates the traffic to Node, or -1
	// when Node processes it locally on-path.
	Via int
	// Frac is the session fraction in [0, 1].
	Frac float64
}

// Assignment is the controller's output: per-class processing fractions
// plus the resulting load picture.
type Assignment struct {
	Scenario *Scenario
	// HasDC reports whether a datacenter node exists; its NIDS index is
	// Scenario.Graph.NumNodes().
	HasDC    bool
	DCAttach int
	// EffCap[j][r] is the effective capacity used (PoPs first, DC last).
	EffCap [][]float64
	// Actions[c] lists the fractional assignments of class c.
	Actions [][]ActionFrac
	// NodeLoad[j][r] is the utilization of NIDS node j on resource r.
	NodeLoad [][]float64
	// LinkLoad[l] is the total utilization of link l including background.
	LinkLoad []float64
	// MissRate is the traffic-weighted detection miss fraction (0 for the
	// symmetric-routing formulations, which guarantee coverage).
	MissRate float64
	// Objective, Iterations and SolveTime describe the LP solve (zero for
	// closed-form architectures such as ingress-only); LPStats carries the
	// solver's deep instrumentation for the same solve.
	Objective  float64
	Iterations int
	SolveTime  time.Duration
	LPStats    lp.SolveStats
}

// RecordLPStats adds one LP solve to reg under the lp.* keys that every
// -metrics artifact shares: counters lp.solves, lp.iterations,
// lp.pivots.phase1/phase2, lp.bound_flips, lp.degenerate_steps,
// lp.bland_activations, lp.refactorizations, lp.warm.hits,
// lp.warm.phase1_skips and lp.devex_resets; max gauges
// lp.max_eta_at_refactor and lp.max_residual; timers lp.solve, lp.phase1
// and lp.phase2. A nil registry records nothing. A closed-form assignment
// such as Ingress (zero iterations, solve time and stats) ran no LP: it
// adds no solve and no timer sample, but still creates every key, so an
// artifact's schema does not depend on the architecture.
func RecordLPStats(reg *obs.Registry, iterations int, solveTime time.Duration, st lp.SolveStats) {
	solves := reg.Counter("lp.solves")
	reg.Counter("lp.iterations").Add(uint64(iterations))
	reg.Counter("lp.pivots.phase1").Add(uint64(st.Phase1Pivots))
	reg.Counter("lp.pivots.phase2").Add(uint64(st.Phase2Pivots))
	reg.Counter("lp.bound_flips").Add(uint64(st.BoundFlips))
	reg.Counter("lp.degenerate_steps").Add(uint64(st.DegenerateSteps))
	reg.Counter("lp.bland_activations").Add(uint64(st.BlandActivations))
	reg.Counter("lp.refactorizations").Add(uint64(st.Refactorizations))
	reg.Counter("lp.warm.hits").Add(uint64(st.WarmStartHits))
	reg.Counter("lp.warm.phase1_skips").Add(uint64(st.Phase1Skips))
	reg.Counter("lp.devex_resets").Add(uint64(st.DevexResets))
	reg.Gauge("lp.max_eta_at_refactor").Max(float64(st.MaxEtaAtRefactor))
	reg.Gauge("lp.max_residual").Max(st.MaxResidual)
	solve, phase1, phase2 := reg.Timer("lp.solve"), reg.Timer("lp.phase1"), reg.Timer("lp.phase2")
	if iterations == 0 && solveTime == 0 && st == (lp.SolveStats{}) {
		return
	}
	solves.Inc()
	solve.ObserveDuration(solveTime)
	phase1.ObserveDuration(st.Phase1Time)
	phase2.ObserveDuration(st.Phase2Time)
}

// NumNIDS returns the number of NIDS nodes (PoPs plus DC when present).
func (a *Assignment) NumNIDS() int {
	n := a.Scenario.Graph.NumNodes()
	if a.HasDC {
		n++
	}
	return n
}

// MaxLoad returns the maximum utilization over all node-resource pairs,
// the paper's LoadCost.
func (a *Assignment) MaxLoad() float64 {
	var worst float64
	for _, row := range a.NodeLoad {
		for _, v := range row {
			if v > worst {
				worst = v
			}
		}
	}
	return worst
}

// MaxLoadExDC returns the maximum utilization excluding the datacenter,
// as plotted in Figures 10 and 12.
func (a *Assignment) MaxLoadExDC() float64 {
	var worst float64
	n := a.Scenario.Graph.NumNodes()
	for j := 0; j < n && j < len(a.NodeLoad); j++ {
		for _, v := range a.NodeLoad[j] {
			if v > worst {
				worst = v
			}
		}
	}
	return worst
}

// DCLoad returns the datacenter's maximum resource utilization, or 0 when
// no DC is deployed.
func (a *Assignment) DCLoad() float64 {
	if !a.HasDC {
		return 0
	}
	var worst float64
	for _, v := range a.NodeLoad[a.Scenario.Graph.NumNodes()] {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// AvgLoad returns the mean utilization across PoP NIDS nodes (first
// resource), used by the aggregation imbalance metric (Fig 19).
func (a *Assignment) AvgLoad() float64 {
	n := a.Scenario.Graph.NumNodes()
	var sum float64
	for j := 0; j < n; j++ {
		sum += a.NodeLoad[j][0]
	}
	return sum / float64(n)
}

// MaxLinkLoad returns the highest total link utilization.
func (a *Assignment) MaxLinkLoad() float64 {
	var worst float64
	for _, v := range a.LinkLoad {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// effCaps builds the effective capacity table for a config.
func effCaps(s *Scenario, hasDC bool, cfg ReplicationConfig) [][]float64 {
	n := s.Graph.NumNodes()
	nR := s.NumResources()
	total := n
	if hasDC {
		total++
	}
	caps := make([][]float64, total)
	base := make([]float64, nR)
	for r := 0; r < nR; r++ {
		for j := 0; j < n; j++ {
			if s.NodeCap[j][r] > base[r] {
				base[r] = s.NodeCap[j][r]
			}
		}
	}
	for j := 0; j < n; j++ {
		caps[j] = make([]float64, nR)
		for r := 0; r < nR; r++ {
			caps[j][r] = s.NodeCap[j][r] * (1 + cfg.ExtraNodeCapacity)
		}
	}
	if hasDC {
		caps[n] = make([]float64, nR)
		for r := 0; r < nR; r++ {
			caps[n][r] = base[r] * cfg.DCCapacity
		}
	}
	return caps
}

// newAssignment allocates the load bookkeeping for a scenario.
func newAssignment(s *Scenario, hasDC bool, attach int, cfg ReplicationConfig) *Assignment {
	a := &Assignment{
		Scenario: s,
		HasDC:    hasDC,
		DCAttach: attach,
		EffCap:   effCaps(s, hasDC, cfg),
		Actions:  make([][]ActionFrac, len(s.Classes)),
		LinkLoad: append([]float64(nil), s.BG...),
	}
	a.NodeLoad = make([][]float64, a.NumNIDS())
	for j := range a.NodeLoad {
		a.NodeLoad[j] = make([]float64, s.NumResources())
	}
	return a
}

// addAction records a fractional assignment and accounts its node load and,
// for replicated fractions, its link loads along the replication path.
func (a *Assignment) addAction(c int, act ActionFrac) {
	if act.Frac <= 1e-9 {
		return
	}
	a.Actions[c] = append(a.Actions[c], act)
	cl := &a.Scenario.Classes[c]
	for r := range cl.Foot {
		a.NodeLoad[act.Node][r] += cl.Foot[r] * cl.Sessions * act.Frac / a.EffCap[act.Node][r]
	}
	if act.Via >= 0 {
		for _, l := range a.replicationPath(act.Via, act.Node).Links {
			a.LinkLoad[l] += cl.Sessions * cl.Size * act.Frac / a.Scenario.LinkCap[l]
		}
	}
}

// replicationPath returns the routed path from the replicating PoP to the
// processing node (mapping the DC to its attachment PoP).
func (a *Assignment) replicationPath(via, node int) topology.Path {
	dst := node
	if a.HasDC && node == a.Scenario.Graph.NumNodes() {
		dst = a.DCAttach
	}
	return a.Scenario.Routing.Path(via, dst)
}

// Ingress builds today's single-vantage-point deployment (Figure 1): every
// class is processed entirely at its ingress PoP. No LP is involved.
func Ingress(s *Scenario) *Assignment {
	a := newAssignment(s, false, -1, ReplicationConfig{}.withDefaults())
	for c := range s.Classes {
		a.addAction(c, ActionFrac{Node: s.Classes[c].Path.Ingress(), Via: -1, Frac: 1})
	}
	return a
}

// pKey and oKey index the decision variables of the replication-style
// formulations.
type pKey struct{ c, j int }
type oKey struct{ c, j, jp int }

// replicationModel is a built (unsolved) replication LP with the variable
// maps needed to extract an assignment and the row handles needed to refresh
// coefficients in place when a sweep knob moves.
type replicationModel struct {
	prob    *lp.Problem
	lam     lp.Var
	pVar    map[pKey]lp.Var
	oVar    map[oKey]lp.Var
	crash   []lp.Var
	mirrors [][]int
	hasDC   bool
	attach  int
	dcIdx   int

	loadRow [][]lp.Row // [nids][resource]
	linkRow []lp.Row   // -1 where no replication can use the link
	caps    [][]float64
	maxW    float64
}

// BuildReplicationProblem constructs the replication LP (§4, Figure 7)
// without solving it, returning the problem plus the crash-basis and
// at-upper variable hints the default solve would use. This is the hook for
// solver ablations and for exporting instances via lp.WriteMPS.
func BuildReplicationProblem(s *Scenario, cfg ReplicationConfig) (*lp.Problem, []lp.Var, []lp.Var, error) {
	m, err := buildReplicationModel(s, cfg.withDefaults())
	if err != nil {
		return nil, nil, nil, err
	}
	return m.prob, m.crash, []lp.Var{m.lam}, nil
}

// buildReplicationModel assembles the LP for a (defaulted) config.
func buildReplicationModel(s *Scenario, cfg ReplicationConfig) (*replicationModel, error) {
	s.validateFinite()
	n := s.Graph.NumNodes()
	nR := s.NumResources()
	hasDC := cfg.Mirror.usesDC()
	attach := -1
	if hasDC {
		if cfg.DCAttachFixed {
			attach = cfg.DCAttach
		} else {
			attach = DCPlacement(s)
		}
	}
	dcIdx := n // NIDS index of the DC when present
	caps := effCaps(s, hasDC, cfg)

	// Mirror sets per PoP.
	mirrors := make([][]int, n)
	for j := 0; j < n; j++ {
		switch cfg.Mirror {
		case MirrorDCOnly:
			mirrors[j] = []int{dcIdx}
		case MirrorOneHop:
			mirrors[j] = topology.KHopNeighborhood(s.Graph, j, 1)
		case MirrorTwoHop:
			mirrors[j] = topology.KHopNeighborhood(s.Graph, j, 2)
		case MirrorDCPlusOneHop:
			mirrors[j] = append(topology.KHopNeighborhood(s.Graph, j, 1), dcIdx)
		}
	}

	prob := lp.NewProblem("replication/" + s.Graph.Name())

	nNIDS := n
	if hasDC {
		nNIDS++
	}
	weight := func(j int) float64 {
		if j < len(cfg.NodeWeights) && cfg.NodeWeights[j] > 0 {
			return cfg.NodeWeights[j]
		}
		return 1
	}
	maxW := 1.0
	for j := 0; j < nNIDS; j++ {
		if w := weight(j); w > maxW {
			maxW = w
		}
	}

	// λ upper bound: the ingress-only deployment is always feasible, so its
	// (weighted) maximum load bounds the optimum; starting λ there keeps
	// the crash basis primal feasible and skips phase 1.
	lamUB := s.MaxIngressLoad()*maxW*1.0000001 + 1e-9
	lam := prob.AddVar(0, lamUB, 1, "lambda")

	// Coverage rows first so the ingress crash columns claim them.
	covRow := make([]lp.Row, len(s.Classes))
	for c := range s.Classes {
		covRow[c] = prob.AddRow(1, 1, fmt.Sprintf("cov[%d]", c))
	}
	// Load rows per NIDS node and resource: w_j·(Σ load terms) − λ ≤ 0,
	// expressed as Σ terms − λ/w_j ≤ 0.
	loadRow := make([][]lp.Row, nNIDS)
	for j := 0; j < nNIDS; j++ {
		loadRow[j] = make([]lp.Row, nR)
		for r := 0; r < nR; r++ {
			loadRow[j][r] = prob.AddRow(-lp.Inf, 0, fmt.Sprintf("load[%d,%d]", j, r))
			prob.SetCoef(loadRow[j][r], lam, -1/weight(j))
		}
	}

	// Link rows created lazily for links that can carry replicated traffic.
	linkRow := make([]lp.Row, s.Graph.NumLinks())
	for l := range linkRow {
		linkRow[l] = -1
	}
	getLinkRow := func(l int) lp.Row {
		if linkRow[l] >= 0 {
			return linkRow[l]
		}
		// Budget: max(MaxLinkLoad, BG_l) − BG_l (Eq 5's max keeps already
		// overloaded links from carrying any replication).
		budget := cfg.MaxLinkLoad - s.BG[l]
		if budget < 0 {
			budget = 0
		}
		linkRow[l] = prob.AddRow(-lp.Inf, budget, fmt.Sprintf("link[%d]", l))
		return linkRow[l]
	}

	pVar := make(map[pKey]lp.Var)
	oVar := make(map[oKey]lp.Var)
	var crash []lp.Var

	for c := range s.Classes {
		cl := &s.Classes[c]
		onPath := cl.Path.NodeSet()
		for _, j := range cl.Path.Nodes {
			v := prob.AddVar(0, 1, 0, fmt.Sprintf("p[%d,%d]", c, j))
			pVar[pKey{c, j}] = v
			prob.SetCoef(covRow[c], v, 1)
			for r := 0; r < nR; r++ {
				prob.SetCoef(loadRow[j][r], v, cl.Foot[r]*cl.Sessions/caps[j][r])
			}
			if j == cl.Path.Ingress() {
				crash = append(crash, v)
			}
		}
		if cfg.Mirror == MirrorNone {
			continue
		}
		for _, j := range cl.Path.Nodes {
			for _, jp := range mirrors[j] {
				if jp != dcIdx && onPath[jp] {
					continue // never replicate to a node already on-path
				}
				v := prob.AddVar(0, 1, 0, fmt.Sprintf("o[%d,%d,%d]", c, j, jp))
				oVar[oKey{c, j, jp}] = v
				prob.SetCoef(covRow[c], v, 1)
				for r := 0; r < nR; r++ {
					prob.SetCoef(loadRow[jp][r], v, cl.Foot[r]*cl.Sessions/caps[jp][r])
				}
				dst := jp
				if jp == dcIdx {
					dst = attach
				}
				for _, l := range s.Routing.Path(j, dst).Links {
					prob.SetCoef(getLinkRow(l), v, cl.Sessions*cl.Size/s.LinkCap[l])
				}
			}
		}
	}
	return &replicationModel{
		prob: prob, lam: lam, pVar: pVar, oVar: oVar, crash: crash,
		mirrors: mirrors, hasDC: hasDC, attach: attach, dcIdx: dcIdx,
		loadRow: loadRow, linkRow: linkRow, caps: caps, maxW: maxW,
	}, nil
}

// extract turns an optimal LP solution into the controller's assignment.
func (m *replicationModel) extract(s *Scenario, cfg ReplicationConfig, sol *lp.Solution) *Assignment {
	a := newAssignment(s, m.hasDC, m.attach, cfg)
	a.Objective = sol.Objective
	a.Iterations = sol.Iterations
	a.SolveTime = sol.SolveTime
	a.LPStats = sol.Stats
	for c := range s.Classes {
		for _, j := range s.Classes[c].Path.Nodes {
			a.addAction(c, ActionFrac{Node: j, Via: -1, Frac: sol.Value(m.pVar[pKey{c, j}])})
		}
		if cfg.Mirror == MirrorNone {
			continue
		}
		onPath := s.Classes[c].Path.NodeSet()
		for _, j := range s.Classes[c].Path.Nodes {
			for _, jp := range m.mirrors[j] {
				if jp != m.dcIdx && onPath[jp] {
					continue
				}
				if v, ok := m.oVar[oKey{c, j, jp}]; ok {
					a.addAction(c, ActionFrac{Node: jp, Via: j, Frac: sol.Value(v)})
				}
			}
		}
	}
	return a
}

// SolveReplication solves the replication LP (§4, Figure 7) and returns the
// optimal assignment. With cfg.Mirror == MirrorNone this degenerates to the
// prior work's on-path distribution [29].
func SolveReplication(s *Scenario, cfg ReplicationConfig) (*Assignment, error) {
	cfg = cfg.withDefaults()
	root := cfg.Trace.StartSpan("replication.solve").
		Arg("graph", s.Graph.Name()).Arg("mirror", cfg.Mirror.String())
	defer root.End()

	build := root.Child("model.build")
	m, err := buildReplicationModel(s, cfg)
	build.End()
	if err != nil {
		return nil, err
	}
	opts := cfg.LP
	opts.CrashBasis = m.crash
	opts.AtUpper = append(opts.AtUpper, m.lam)
	lpSpan := root.Child("lp.solve")
	if opts.StartSpan == nil {
		opts.StartSpan = lpSpan.Hook()
	}
	sol := lp.Solve(m.prob, opts)
	lpSpan.Arg("iterations", sol.Iterations).Arg("status", sol.Status.String()).End()
	if err := sol.Err(); err != nil {
		return nil, fmt.Errorf("replication LP on %s: %w", s.Graph.Name(), err)
	}
	extract := root.Child("extract")
	a := m.extract(s, cfg, sol)
	extract.End()
	return a, nil
}

// CoverageError returns the largest deviation of any class's total assigned
// fraction from 1; a correct assignment has coverage error ≈ 0.
func (a *Assignment) CoverageError() float64 {
	var worst float64
	for c := range a.Actions {
		var sum float64
		for _, act := range a.Actions[c] {
			sum += act.Frac
		}
		if d := math.Abs(sum - 1); d > worst {
			worst = d
		}
	}
	return worst
}
