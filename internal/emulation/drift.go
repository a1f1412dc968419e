package emulation

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nwids/internal/controller"
	"nwids/internal/core"
	"nwids/internal/nids"
	"nwids/internal/obs"
	"nwids/internal/packet"
	"nwids/internal/shim"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// This file is the online-controller scenario driver: a deterministic
// virtual-clock emulation whose traffic shifts across phases (diurnal
// cycle, flash crowd, rolling node drain) while a controller.Controller
// watches per-class load series, warm re-solves the LP on drift, and rolls
// reconfigurations out two-phase make-before-break onto the in-process shim
// fleet. Every quantity the run reports — drift events, epoch pushes,
// sessions moved, detection parity against a centralized oracle — is a pure
// function of the seeds, so the CI determinism gate can diff timelines
// byte-for-byte across worker counts.

// DriftPhase is one phase of a drifting workload.
type DriftPhase struct {
	// Label names the phase in timelines ("night", "flash-peak", ...).
	Label string
	// Matrix is the traffic matrix in force during the phase.
	Matrix *traffic.Matrix
	// CapScale, when non-nil, scales each node's capacity (rolling drain);
	// missing entries mean 1.
	CapScale map[int]float64
	// Sessions is the number of sessions injected during the phase.
	Sessions int
	// Reconfigure requests an operator-triggered re-solve at phase entry —
	// capacity drains move no traffic, so no drift detector will fire for
	// them; the operator announces the drain instead.
	Reconfigure bool
}

// DriftConfig parameterizes a drifting-workload run.
type DriftConfig struct {
	// Base is the calibrated scenario; its matrix should match the first
	// phase.
	Base *core.Scenario
	// Phases is the workload sequence.
	Phases []DriftPhase
	// Planner picks the repartition strategy; nil means churn-minimizing.
	Planner controller.Planner
	// Replication configures the LP the controller re-solves.
	Replication core.ReplicationConfig

	// HashSeed / GenSeed seed the shim hash and trace generation
	// (defaults 1 / 1).
	HashSeed uint32
	GenSeed  int64
	// Rules / ScanK / PacketsPerSession / PayloadBytes / MaliciousFraction
	// configure engines and trace generation as in Config.
	Rules             []nids.Rule
	ScanK             int
	PacketsPerSession int
	PayloadBytes      int
	MaliciousFraction float64

	// TickSessions is the session count between telemetry ticks (default
	// 16 — finer than the offline default so detectors arm within a phase).
	TickSessions int
	// WatchClasses bounds how many classes (heaviest first) get drift
	// watchers (default 8).
	WatchClasses int
	// WindowSessions is the trailing-window size for the empirical traffic
	// matrix the controller re-solves against (default 256).
	WindowSessions int
	// CooldownSessions is the minimum session count between committed
	// reconfigurations (default 192).
	CooldownSessions int
	// TransitionSessions is how long the fleet runs on merged transition
	// configs before the controller confirms the clean epoch (default 32).
	TransitionSessions int

	// Obs / Log / Clock as in Config.
	Obs   *obs.Registry
	Log   *obs.Logger
	Clock *obs.VirtualClock
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Planner == nil {
		c.Planner = controller.ChurnMinPlanner{}
	}
	if c.HashSeed == 0 {
		c.HashSeed = 1
	}
	if c.GenSeed == 0 {
		c.GenSeed = 1
	}
	if c.Rules == nil {
		c.Rules = nids.DefaultRules()
	}
	if c.ScanK == 0 {
		c.ScanK = 20
	}
	if c.PacketsPerSession == 0 {
		c.PacketsPerSession = 6
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 256
	}
	if c.MaliciousFraction == 0 {
		c.MaliciousFraction = 0.05
	}
	if c.TickSessions == 0 {
		c.TickSessions = 16
	}
	if c.WatchClasses == 0 {
		c.WatchClasses = 8
	}
	if c.WindowSessions == 0 {
		c.WindowSessions = 256
	}
	if c.CooldownSessions == 0 {
		c.CooldownSessions = 192
	}
	if c.TransitionSessions == 0 {
		c.TransitionSessions = 32
	}
	if c.Clock == nil {
		c.Clock = obs.NewVirtualClock(time.Unix(0, 0).UTC())
	}
	return c
}

// TimelineEvent is one timestamped entry of a drift run's event log.
type TimelineEvent struct {
	// T is the virtual time of the event.
	T time.Time
	// Kind is "phase", "drift", "propose", "confirm" or "reject".
	Kind string
	// Detail is a short human-readable description.
	Detail string
}

// ReconfigStat reports one committed reconfiguration.
type ReconfigStat struct {
	Epoch   int
	Trigger string
	Planner string
	// PlannedChurn is the controller's volume-weighted hash-space estimate.
	PlannedChurn float64
	// SessionsMoved counts remaining-trace sessions whose owning node
	// changes under the new partitions — the empirical churn.
	SessionsMoved int
	// ExpectedMoved is the per-class hash-measure churn weighted by the
	// remaining sessions of each class: the expected value of SessionsMoved,
	// free of the finite-population hash noise of the raw count.
	ExpectedMoved float64
	// SessionsRemaining is the denominator for SessionsMoved.
	SessionsRemaining int
	ClassesChanged    int
}

// DriftResult summarizes a drifting-workload run.
type DriftResult struct {
	Planner  string
	Sessions int
	// Reconfigs lists committed reconfigurations in order.
	Reconfigs []ReconfigStat
	// SessionsMoved sums the empirical churn over all reconfigurations;
	// ExpectedSessionsMoved sums its deterministic expectation.
	SessionsMoved         int
	ExpectedSessionsMoved float64
	// DriftEvents counts detector firings (including ignored ones).
	DriftEvents int
	// Timeline is the ordered event log (phases, drift, epoch pushes).
	Timeline []TimelineEvent
	// Detection parity against the centralized oracle engine: Missed is the
	// number of sessions the oracle flagged but the fleet did not.
	MaliciousSessions int
	OracleDetected    int
	FleetDetected     int
	Missed            int
	// OwnershipErrors counts sessions with no owner, or with >1 owner
	// outside a transition window (must be 0).
	OwnershipErrors int
	// Counters is the fleet-wide shim counter sum; Reconciled is the
	// Seen + Dual = Processed + Replicated + Skipped identity over it.
	Counters   shim.Counters
	Reconciled bool
}

// shimFleet applies controller epoch pushes to the in-process shims. The
// initial epoch configures every node, so each path node has a shim.
type shimFleet struct {
	shims []*shim.Shim // node-indexed
}

// Apply implements controller.Fleet all-or-nothing: every config is
// validated against its shim before any is installed, so a nacked push
// leaves every node on its previous epoch and the controller's committed
// state still describes the fleet. Node order is sorted so the run is
// deterministic.
func (f *shimFleet) Apply(_ int, _ controller.FleetPhase, cfgs map[int]*shim.Config) error {
	nodes := make([]int, 0, len(cfgs))
	for node := range cfgs {
		//lint:ignore nondeterminism nodes are sorted immediately below
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		if node < len(f.shims) && f.shims[node] != nil {
			if err := f.shims[node].CheckConfig(cfgs[node]); err != nil {
				return fmt.Errorf("node %d: %w", node, err)
			}
		}
	}
	for _, node := range nodes {
		for node >= len(f.shims) {
			f.shims = append(f.shims, nil)
		}
		if f.shims[node] == nil {
			f.shims[node] = shim.New(cfgs[node])
			continue
		}
		if err := f.shims[node].SetConfig(cfgs[node]); err != nil {
			return fmt.Errorf("node %d: %w", node, err) // unreachable: checked above
		}
	}
	return nil
}

// proposal is a transition the controller pushed to the fleet, kept for
// its churn to be measured after the run: the session count at the
// proposal, the partitions before and after, and the index of its
// "propose" timeline event. Partition maps are never mutated once built
// (Propose makes a fresh one and Confirm only swaps), so holding them is
// safe.
type proposal struct {
	injected  int
	old, next map[shim.ClassKey][]shim.OwnedRange
	event     int
}

// RunDrift executes a drifting workload under the online controller and
// returns the run's reconfiguration and detection statistics.
//
// The run is a three-goroutine pipeline. A producer owns the trace
// generator and streams each phase's sessions in batches to two bounded
// channels; an oracle goroutine owns the centralised oracle engine and
// feeds it every session it receives; the calling goroutine walks the
// sessions through the fleet and runs the controller and telemetry. Each
// goroutine owns its engine or generator outright, a batch is read-only
// from its send until both the oracle and the fleet loop have released it
// (only then does the producer rewrite it), and the oracle's alerts are
// read only after it is joined, so the result is the same function of the
// seeds as a sequential run. Every return path joins both goroutines.
//
// Of each walked session only its class, hash fraction and canonical tuple
// are kept. A reconfiguration's empirical churn is measured over the
// sessions after it, so every proposal is recorded and measured after the
// loop, class by class.
func RunDrift(cfg DriftConfig) (*DriftResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Base == nil || len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("emulation: drift run needs a base scenario and phases")
	}
	base := cfg.Base
	nPoP := base.Graph.NumNodes()

	// Start the producer and the oracle first, so generation overlaps the
	// initial LP solve.
	counts := make([][][]int, len(cfg.Phases))
	for k, ph := range cfg.Phases {
		counts[k] = sessionCounts(base.WithMatrix(ph.Matrix), ph.Sessions)
	}
	gen := packet.NewGenerator(packet.GeneratorConfig{
		PacketsPerSession: cfg.PacketsPerSession,
		PayloadBytes:      cfg.PayloadBytes,
		MaliciousFraction: cfg.MaliciousFraction,
		Signatures:        sigsOf(cfg.Rules),
	}, cfg.GenSeed)
	// One automaton per run, shared by the fleet's engines and the oracle.
	matcher := nids.NewMatcher(nids.Patterns(cfg.Rules))
	oracle := nids.NewEngineWithMatcher(cfg.Rules, matcher, cfg.ScanK)
	toFleet := make(chan *sessionBatch, streamBatchDepth)
	toOracle := make(chan *sessionBatch, streamBatchDepth)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	spawn(&wg, func() { streamPhases(gen, counts, quit, toOracle, toFleet) })
	spawn(&wg, func() {
		for b := range toOracle {
			for si := range b.sessions {
				for _, p := range b.sessions[si].Packets {
					oracle.ProcessPacket(p)
				}
			}
			b.release()
		}
	})
	defer func() {
		close(quit)
		wg.Wait()
	}()

	// Controller over the in-process fleet.
	fleet := &shimFleet{}
	ctl, err := controller.New(base, fleet, controller.Config{
		Seed: cfg.HashSeed, Replication: cfg.Replication,
		Planner: cfg.Planner, Registry: cfg.Obs, Log: cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	nNIDS := ctl.Assignment().NumNIDS()
	engines := make([]*nids.Engine, nNIDS)
	for j := range engines {
		engines[j] = nids.NewEngineWithMatcher(cfg.Rules, matcher, cfg.ScanK)
	}

	// Drift watchers over the heaviest classes' per-tick byte series. The
	// series live on a private per-run registry: the shared cfg.Obs registry
	// is reused across concurrent sweep jobs, and sharing mutable series
	// between runs would cross-contaminate the detectors (the controller's
	// behavior must be a pure function of this run's trace). Series and
	// byte counts are indexed by dense class src·nPoP+dst.
	runObs := obs.NewRegistry()
	classKeys := watchedClasses(base, cfg.WatchClasses)
	watched := make([]int, len(classKeys))
	classSeries := make([]*obs.Series, nPoP*nPoP)
	classBytes := make([]uint64, nPoP*nPoP)
	for i, key := range classKeys {
		name := fmt.Sprintf("drift.class.%d-%d.bytes", key.SrcPoP, key.DstPoP)
		watched[i] = int(key.SrcPoP)*nPoP + int(key.DstPoP)
		classSeries[watched[i]] = runObs.Series(name)
		ctl.Watch(name, classSeries[watched[i]])
	}

	// Trailing window of session classes for the empirical traffic matrix,
	// with its per-class counts.
	window := make([]int, 0, cfg.WindowSessions)
	windowCounts := make([]int, nPoP*nPoP)

	res := &DriftResult{Planner: cfg.Planner.Name()}
	vc := cfg.Clock
	event := func(kind, detail string) {
		res.Timeline = append(res.Timeline, TimelineEvent{T: vc.Now(), Kind: kind, Detail: detail})
	}

	// estimateScenario builds the scenario the controller re-solves: the
	// trailing-window traffic estimate (floored at a small share of the
	// base matrix so no class vanishes from the LP), scaled to the base
	// volume, with the current phase's capacity scaling applied.
	baseTM := matrixOf(base, nPoP)
	estimateScenario := func(capScale map[int]float64) *core.Scenario {
		tm := traffic.NewMatrix(nPoP)
		winTotal := float64(len(window))
		baseTotal := base.TotalSessions()
		for a := 0; a < nPoP; a++ {
			for b := 0; b < nPoP; b++ {
				if baseTM.Volume(a, b) == 0 {
					continue
				}
				est := 0.0
				if winTotal > 0 {
					est = float64(windowCounts[a*nPoP+b]) / winTotal * baseTotal
				}
				if floor := 0.05 * baseTM.Volume(a, b); est < floor {
					est = floor
				}
				tm.Sessions[a][b] = est
			}
		}
		sv := base.WithMatrix(tm)
		if len(capScale) > 0 {
			caps := make([][]float64, len(sv.NodeCap))
			for j := range caps {
				caps[j] = append([]float64(nil), sv.NodeCap[j]...)
				if s, ok := capScale[j]; ok {
					for r := range caps[j] {
						caps[j][r] *= s
					}
				}
			}
			sv.NodeCap = caps
		}
		return sv
	}

	// Each proposal's churn is filled in after the loop; the "propose"
	// event's detail carries it, so the event is amended then.
	var proposals []proposal
	propose := func(trigger string, capScale map[int]float64, injected int) {
		oldParts := ctl.Partitions()
		tr, err := ctl.Propose(estimateScenario(capScale), trigger)
		if err != nil {
			event("reject", fmt.Sprintf("%s: %v", trigger, err))
			return
		}
		res.Reconfigs = append(res.Reconfigs, ReconfigStat{
			Epoch: tr.Epoch, Trigger: trigger, Planner: tr.Planner,
			PlannedChurn: tr.Churn, ClassesChanged: tr.ClassesChanged,
		})
		proposals = append(proposals, proposal{
			injected: injected, old: oldParts, next: ctl.PendingPartitions(), event: len(res.Timeline),
		})
		event("propose", "")
	}

	injected := 0
	lastReconfig := -cfg.CooldownSessions
	transitionLeft := 0
	classes := newClassLog(nPoP)
	var tuples []packet.FiveTuple // canonical, in trace order
	// controller.New configured every node, so fleet.shims is complete;
	// later pushes reconfigure its shims in place.
	w := newSessionWalk(fleet.shims, cfg.HashSeed, cfg.Clock, nNIDS)
	act := func(node int, d shim.Decision, p packet.Packet) error {
		if d.Act == shim.Replicate {
			node = d.Mirror
		}
		engines[node].ProcessPacket(p)
		return nil
	}

	for _, ph := range cfg.Phases {
		event("phase", ph.Label)
		if ph.Reconfigure && ctl.Pending() == nil {
			propose("operator:"+ph.Label, ph.CapScale, injected)
			if ctl.Pending() != nil {
				transitionLeft = cfg.TransitionSessions
			}
		}
		for last := false; !last; {
			b := <-toFleet
			last = b.last
			for si := range b.sessions {
				sess := &b.sessions[si]
				if sess.Malicious {
					res.MaliciousSessions++
				}
				inTransition := ctl.Pending() != nil
				owners, err := w.walk(sess, base.Routing.Path(sess.SrcPoP, sess.DstPoP).Nodes, nil, act)
				if err != nil {
					return nil, err
				}
				class := sess.SrcPoP*nPoP + sess.DstPoP
				if classSeries[class] != nil {
					classBytes[class] += payloadBytes(sess)
				}
				if len(owners) == 0 || (!inTransition && len(owners) != 1) {
					res.OwnershipErrors++
				}
				classes.add(class, injected, shim.HashFraction(sess.Tuple, cfg.HashSeed))
				tuples = append(tuples, sess.Tuple.Canonical())
				injected++
				window = append(window, class)
				windowCounts[class]++
				if len(window) > cfg.WindowSessions {
					windowCounts[window[0]]--
					window = window[1:]
				}

				// Two-phase rollout: after the transition window, confirm the
				// clean epoch.
				if ctl.Pending() != nil {
					if transitionLeft--; transitionLeft <= 0 {
						tr, err := ctl.Confirm()
						if err != nil {
							return nil, err
						}
						lastReconfig = injected
						event("confirm", fmt.Sprintf("epoch %d clean (%s)", tr.Epoch, tr.Trigger))
					}
				}

				// Telemetry tick: record class byte deltas, poll drift.
				if injected%cfg.TickSessions == 0 {
					now := vc.Now()
					for _, c := range watched {
						classSeries[c].RecordAt(now, float64(classBytes[c]))
						classBytes[c] = 0
					}
					fired := ctl.PollDrift()
					res.DriftEvents += len(fired)
					for _, ev := range fired {
						event("drift", fmt.Sprintf("%s %s dir %+d score %.1f",
							ev.Series, ev.Detector, ev.Direction, ev.Score))
					}
					if len(fired) > 0 && ctl.Pending() == nil && injected-lastReconfig >= cfg.CooldownSessions {
						propose("drift:"+fired[0].Series, ph.CapScale, injected)
						if ctl.Pending() != nil {
							transitionLeft = cfg.TransitionSessions
						}
					}
				}
			}
			b.release()
		}
	}
	// Confirm any still-pending transition so the run ends on a clean epoch.
	if ctl.Pending() != nil {
		tr, err := ctl.Confirm()
		if err != nil {
			return nil, err
		}
		event("confirm", fmt.Sprintf("epoch %d clean (%s, end of trace)", tr.Epoch, tr.Trigger))
	}
	res.Sessions = injected

	// Empirical churn of every reconfiguration: remaining-trace sessions
	// whose owner changes, plus its deterministic expectation (per-class
	// hash-measure churn weighted by that class's remaining sessions).
	for i, p := range proposals {
		rc := &res.Reconfigs[i]
		rc.SessionsMoved, rc.SessionsRemaining, rc.ExpectedMoved = classes.churn(p.injected, p.old, p.next)
		res.SessionsMoved += rc.SessionsMoved
		res.ExpectedSessionsMoved += rc.ExpectedMoved
		res.Timeline[p.event].Detail = fmt.Sprintf("epoch %d merged (%s, churn %.4f, moved %d/%d)",
			rc.Epoch, rc.Trigger, rc.PlannedChurn, rc.SessionsMoved, rc.SessionsRemaining)
	}

	// Detection parity: every session the centralized oracle flagged must be
	// flagged by some fleet engine. The producer has sent its last batch, so
	// this wait is the oracle's join.
	wg.Wait()
	oracleHits := alertTuples(oracle)
	fleetHits := alertTuples(engines...)
	for _, can := range tuples {
		if oracleHits[can] {
			res.OracleDetected++
			if fleetHits[can] {
				res.FleetDetected++
			} else {
				res.Missed++
			}
		}
	}

	for _, sh := range fleet.shims {
		res.Counters = res.Counters.Add(sh.Counters)
	}
	res.Reconciled = res.Counters.Reconciled()
	if cfg.Obs != nil {
		cfg.Obs.Counter("drift.sessions_moved").Add(uint64(res.SessionsMoved))
		cfg.Obs.Counter("drift.missed").Add(uint64(res.Missed))
	}
	cfg.Log.Debug("drift run done",
		"planner", res.Planner, "sessions", res.Sessions,
		"reconfigs", len(res.Reconfigs), "moved", res.SessionsMoved,
		"drift_events", res.DriftEvents, "missed", res.Missed,
		"ownership_errors", res.OwnershipErrors, "reconciled", res.Reconciled)
	return res, nil
}

// watchedClasses returns the top-n classes by base session volume in
// deterministic order (volume desc, then key).
func watchedClasses(sc *core.Scenario, n int) []shim.ClassKey {
	vol := map[shim.ClassKey]float64{}
	for i := range sc.Classes {
		cl := &sc.Classes[i]
		vol[shim.ClassKey{SrcPoP: uint8(cl.Src), DstPoP: uint8(cl.Dst)}] += cl.Sessions
	}
	keys := make([]shim.ClassKey, 0, len(vol))
	for key := range vol {
		//lint:ignore nondeterminism keys are sorted immediately below
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if vol[keys[i]] != vol[keys[j]] {
			return vol[keys[i]] > vol[keys[j]]
		}
		if keys[i].SrcPoP != keys[j].SrcPoP {
			return keys[i].SrcPoP < keys[j].SrcPoP
		}
		return keys[i].DstPoP < keys[j].DstPoP
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// matrixOf reconstructs the session-volume matrix of a scenario's classes.
func matrixOf(sc *core.Scenario, n int) *traffic.Matrix {
	tm := traffic.NewMatrix(n)
	for i := range sc.Classes {
		cl := &sc.Classes[i]
		tm.Sessions[cl.Src][cl.Dst] += cl.Sessions
	}
	return tm
}

// DriftScenario builds a named preset drifting workload over a topology:
// "diurnal" (sinusoidal per-ingress modulation across a day cycle), "flash"
// (one destination's traffic spikes 8× and recedes) or "drain" (a node's
// capacity is drained to 30% for maintenance and restored, with
// operator-triggered reconfigurations). sessionsPerPhase scales run length.
func DriftScenario(name string, g *topology.Graph, sessionsPerPhase int) (*DriftConfig, error) {
	if sessionsPerPhase <= 0 {
		sessionsPerPhase = 480
	}
	baseTM := traffic.GravityDefault(g)
	base := core.NewScenario(g, baseTM, core.ScenarioOptions{})
	n := g.NumNodes()
	cfg := &DriftConfig{Base: base}
	switch name {
	case "diurnal":
		// A day in K phases: ingress i's volume swings ±60% around the base,
		// phase-shifted per node so load moves around the network.
		const K = 6
		for k := 0; k < K; k++ {
			tm := traffic.NewMatrix(n)
			for a := 0; a < n; a++ {
				f := 1 + 0.6*math.Sin(2*math.Pi*float64(k)/K+2*math.Pi*float64(a)/float64(n))
				for b := 0; b < n; b++ {
					tm.Sessions[a][b] = baseTM.Volume(a, b) * f
				}
			}
			cfg.Phases = append(cfg.Phases, DriftPhase{
				Label: fmt.Sprintf("hour-%02d", k*24/K), Matrix: tm, Sessions: sessionsPerPhase,
			})
		}
	case "flash":
		hot := hottestDst(baseTM, n)
		scaleTo := func(f float64) *traffic.Matrix {
			tm := baseTM.Clone()
			for a := 0; a < n; a++ {
				if a != hot {
					tm.Sessions[a][hot] *= f
				}
			}
			return tm
		}
		cfg.Phases = []DriftPhase{
			{Label: "calm", Matrix: baseTM.Clone(), Sessions: sessionsPerPhase},
			{Label: "ramp", Matrix: scaleTo(4), Sessions: sessionsPerPhase},
			{Label: "peak", Matrix: scaleTo(8), Sessions: sessionsPerPhase},
			{Label: "recede", Matrix: scaleTo(2), Sessions: sessionsPerPhase},
			{Label: "calm-again", Matrix: baseTM.Clone(), Sessions: sessionsPerPhase},
		}
	case "drain":
		// Capacity changes move no traffic, so these phases carry operator
		// triggers instead of relying on drift detectors; link budgets get
		// headroom so the LP stays feasible with a drained node.
		drained := hottestDst(baseTM, n)
		cfg.Replication = core.ReplicationConfig{MaxLinkLoad: 0.6}
		cfg.Phases = []DriftPhase{
			{Label: "steady", Matrix: baseTM.Clone(), Sessions: sessionsPerPhase},
			{Label: fmt.Sprintf("drain-node-%d", drained), Matrix: baseTM.Clone(),
				CapScale: map[int]float64{drained: 0.3}, Sessions: sessionsPerPhase, Reconfigure: true},
			{Label: "restore", Matrix: baseTM.Clone(), Sessions: sessionsPerPhase, Reconfigure: true},
		}
	default:
		return nil, fmt.Errorf("emulation: unknown drift scenario %q (want diurnal, flash or drain)", name)
	}
	return cfg, nil
}

// hottestDst returns the destination PoP with the highest inbound volume.
func hottestDst(tm *traffic.Matrix, n int) int {
	best, bestVol := 0, -1.0
	for b := 0; b < n; b++ {
		v := 0.0
		for a := 0; a < n; a++ {
			if a != b {
				v += tm.Volume(a, b)
			}
		}
		if v > bestVol {
			best, bestVol = b, v
		}
	}
	return best
}
