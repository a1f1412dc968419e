// Package emulation is the repository's Emulab stand-in (§8.1): it
// instantiates one shim + NIDS engine per node of a scenario, compiles the
// controller's assignment into shim configurations, and replays generated
// session traces through the network with a stateful "supernode" that
// injects each session's packets in order at the correct ingress. Per-node
// work is measured in deterministic engine work units (bytes scanned plus
// per-packet overhead), the reproduction's analog of the paper's PAPI CPU
// instruction counts. Replication can run in-process or over real TCP
// tunnels (§7.2's persistent tunnels).
package emulation

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"nwids/internal/core"
	"nwids/internal/nids"
	"nwids/internal/obs"
	"nwids/internal/packet"
	"nwids/internal/shim"
)

// Config parameterizes an emulation run.
type Config struct {
	// Assignment is the controller output to execute.
	Assignment *core.Assignment
	// Rules is the signature ruleset (default nids.DefaultRules()).
	Rules []nids.Rule
	// ScanK is the scan-detection threshold (default 20).
	ScanK int
	// HashSeed seeds the shim hash (default 1).
	HashSeed uint32
	// GenSeed seeds trace generation (default 1).
	GenSeed int64
	// TotalSessions scales the scenario's traffic matrix down to an
	// emulable trace size, preserving proportions (default 5000).
	TotalSessions int
	// PacketsPerSession / PayloadBytes / MaliciousFraction configure the
	// generator (defaults 6 / 256 / 0.02).
	PacketsPerSession int
	PayloadBytes      int
	MaliciousFraction float64
	// Live replicates over real TCP tunnels on the loopback interface
	// instead of direct in-process delivery.
	Live bool
	// Workers shards the engine work: values above 1 spread the per-node
	// engines over min(Workers, nodes) worker goroutines fed with packet
	// batches, while the driver keeps the virtual clock, spans and dispatch
	// decisions sequential. 0 or 1 processes packets inline on the driver.
	// Each node is pinned to one worker, so alerts, counters and timelines
	// are byte-identical at any worker count.
	Workers int
	// Obs, when non-nil, receives run metrics: per-node work-unit
	// histograms, shim dispatch counters, tunnel byte counters (see
	// recordMetrics for the key schema) and the tick-granularity timeline
	// series (per-node work/dispatch deltas, per-class bytes).
	Obs *obs.Registry
	// Log, when non-nil, receives structured progress events, including the
	// drift events fired by the per-node load watchers.
	Log *obs.Logger
	// Clock is the virtual tick clock stamping the run's telemetry. When
	// nil Run creates one at the Unix epoch. Binaries that also trace or
	// serve the registry live should create the clock themselves and share
	// it with the tracer/registry so all timestamps agree.
	Clock *obs.VirtualClock
	// Trace, when non-nil, records the run and the packet path (ingress →
	// dispatch → analysis/replicate → aggregation) as spans. Only the first
	// TraceSessions sessions get per-packet spans; the virtual clock
	// advances identically whether or not a tracer is attached.
	Trace *obs.Tracer
	// TraceSessions bounds the per-packet-span sessions (default 8).
	TraceSessions int
	// TickSessions is the session count between telemetry ticks (default
	// DefaultTickSessions).
	TickSessions int
}

func (c Config) withDefaults() Config {
	if c.Rules == nil {
		c.Rules = nids.DefaultRules()
	}
	if c.ScanK == 0 {
		c.ScanK = 20
	}
	if c.HashSeed == 0 {
		c.HashSeed = 1
	}
	if c.GenSeed == 0 {
		c.GenSeed = 1
	}
	if c.TotalSessions == 0 {
		c.TotalSessions = 5000
	}
	if c.PacketsPerSession == 0 {
		c.PacketsPerSession = 6
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 256
	}
	if c.MaliciousFraction == 0 {
		c.MaliciousFraction = 0.02
	}
	if c.Clock == nil {
		c.Clock = obs.NewVirtualClock(time.Unix(0, 0).UTC())
	}
	if c.TraceSessions == 0 {
		c.TraceSessions = defaultTraceSessions
	}
	return c
}

// NodeStats reports one NIDS node's activity after a run.
type NodeStats struct {
	Node          int
	IsDC          bool
	WorkUnits     uint64
	Packets       uint64
	Processed     uint64
	Replicated    uint64
	TunnelBytes   uint64
	Alerts        int
	FlowsBoth     uint64
	FlowsOneSided uint64
}

// Result summarizes an emulation run.
type Result struct {
	Nodes []NodeStats
	// Sessions is the number of sessions injected.
	Sessions int
	// MaliciousSessions and DetectedSessions validate end-to-end detection:
	// every planted signature should be caught by whichever node owns the
	// session.
	MaliciousSessions int
	DetectedSessions  int
	// OwnershipErrors counts sessions processed by != 1 node (must be 0).
	OwnershipErrors int
}

// MaxWorkExDC returns the highest per-node work units excluding the DC.
func (r *Result) MaxWorkExDC() uint64 {
	var worst uint64
	for _, n := range r.Nodes {
		if !n.IsDC && n.WorkUnits > worst {
			worst = n.WorkUnits
		}
	}
	return worst
}

// TotalWork sums work units over all nodes.
func (r *Result) TotalWork() uint64 {
	var t uint64
	for _, n := range r.Nodes {
		t += n.WorkUnits
	}
	return t
}

// Run executes the emulation and returns per-node statistics.
//
// The trace is streamed, never held. A producer goroutine owns the trace
// generator and sends the sessions in batches over one bounded channel
// (streamPhases, the producer RunDrift uses); the calling goroutine walks
// each batch through the fleet as it arrives, so generation overlaps the
// walk and a payload is scanned soon after it is written. The producer
// starts before the fleet is built. It is the only goroutine that touches
// the generator, and a sent batch is read-only, so the walk sees the
// sessions GenerateWorkload returns, in the same order; the walk, the
// telemetry, the engine feed, the workers and the live tunnels are as
// they would be over that slice. The Result, timeline and trace are
// therefore the same function of the seeds at any Workers and in live
// mode. Of each session the run keeps nothing but the canonical tuple of
// a malicious one. Every return path joins the producer.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	a := cfg.Assignment
	if a == nil {
		return nil, fmt.Errorf("emulation: nil assignment")
	}
	sc := a.Scenario
	nNIDS := a.NumNIDS()

	counts, total, gen := workload(cfg)
	batches := make(chan sessionBatch, streamBatchDepth)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	spawn(&wg, func() { streamPhases(gen, [][][]int{counts}, quit, batches) })
	defer func() {
		close(quit)
		wg.Wait()
	}()

	cfgs := shim.CompileConfigs(a, cfg.HashSeed)
	shims := make([]*shim.Shim, nNIDS)
	engines := make([]*nids.Engine, nNIDS)
	// One automaton per run: every node runs the same ruleset, and the
	// compiled matcher is immutable, so the fleet shares it.
	matcher := nids.NewMatcher(nids.Patterns(cfg.Rules))
	for j := 0; j < nNIDS; j++ {
		shims[j] = shim.New(cfgs[j])
		engines[j] = nids.NewEngineWithMatcher(cfg.Rules, matcher, cfg.ScanK)
	}
	engMu := make([]sync.Mutex, nNIDS)

	// Engine feed: inline at Workers <= 1, per-node sharded worker
	// goroutines with batched hand-off above that. stop is idempotent; the
	// explicit call before final stats drains everything, the defer covers
	// error returns.
	feed := newEngineFeed(engines, engMu, cfg.Workers)
	defer feed.stop()

	// Optional live tunnels: one server per node, one dialed tunnel per
	// (replicator, mirror) pair, created lazily; replication is batched
	// through SendBatch.
	var servers []*shim.Server
	var tunnels map[[2]int]*shim.Tunnel
	var tb *tunnelBatcher
	tunnelBytes := make([]uint64, nNIDS)
	if cfg.Live {
		servers = make([]*shim.Server, nNIDS)
		tunnels = make(map[[2]int]*shim.Tunnel)
		for j := 0; j < nNIDS; j++ {
			j := j
			srv, err := shim.Serve("127.0.0.1:0", func(p packet.Packet) {
				engMu[j].Lock()
				engines[j].ProcessPacket(p)
				engMu[j].Unlock()
			})
			if err != nil {
				return nil, fmt.Errorf("emulation: tunnel server for node %d: %w", j, err)
			}
			servers[j] = srv
		}
		tb = newTunnelBatcher(servers, tunnels)
		defer func() {
			for _, t := range tunnels {
				//lint:ignore errdiscard best-effort teardown of an in-memory emulation; nothing to do with a close error
				t.Close()
			}
			for _, s := range servers {
				//lint:ignore errdiscard best-effort teardown of an in-memory emulation; nothing to do with a close error
				s.Close()
			}
		}()
	}

	deliver := func(from, to int, p packet.Packet) error {
		tunnelBytes[from] += uint64(len(p.Payload))
		if !cfg.Live {
			feed.process(to, p)
			return nil
		}
		return tb.send(from, to, p)
	}

	cfg.Log.Debug("emulation start",
		"topology", sc.Graph.Name(), "nodes", nNIDS, "sessions", total, "live", cfg.Live)

	// Telemetry: the virtual clock ticks per unit of simulated work, the
	// tick recorder samples per-node and per-class load into timeline
	// series, and the first TraceSessions sessions get per-packet spans.
	tel := newTelemetry(cfg, cfg.Clock, sc, nNIDS,
		func(j int) uint64 {
			engMu[j].Lock()
			defer engMu[j].Unlock()
			return engines[j].Stats().WorkUnits()
		},
		func(j int) shim.Counters { return shims[j].Counters })
	runSpan := cfg.Trace.StartSpan("emulation.run").
		Arg("topology", sc.Graph.Name()).Arg("sessions", total)
	defer runSpan.End()

	res := &Result{Sessions: total}
	w := newSessionWalk(shims, cfg.HashSeed, cfg.Clock, nNIDS)
	act := func(node int, d shim.Decision, p packet.Packet) error {
		if d.Act == shim.Replicate {
			return deliver(node, d.Mirror, p)
		}
		feed.process(node, p)
		return nil
	}

	// malicious holds the canonical tuples of the malicious sessions, for
	// the post-drain detection count.
	var malicious []packet.FiveTuple
	si := 0
	for b := range batches {
		for i := range b.sessions {
			sess := &b.sessions[i]
			if sess.Malicious {
				res.MaliciousSessions++
				malicious = append(malicious, sess.Tuple.Canonical())
			}
			var sessSpan *obs.TraceSpan // nil past the traced prefix; nil-safe
			if si < cfg.TraceSessions {
				sessSpan = runSpan.Child("session").
					Arg("session", si).Arg("src", sess.SrcPoP).Arg("dst", sess.DstPoP)
			}
			owners, err := w.walk(sess, sc.Routing.Path(sess.SrcPoP, sess.DstPoP).Nodes, sessSpan, act)
			if err != nil {
				return nil, err
			}
			sessSpan.End()
			tel.addClassBytes(sess.SrcPoP, sess.DstPoP, payloadBytes(sess))
			if tel.willTick(si) {
				// The tick samples engine work counters; drain the shards
				// first so the sampled values match the inline path's.
				feed.drainAll()
			}
			tel.sessionDone(si)
			if len(owners) != 1 {
				res.OwnershipErrors++
			}
			si++
		}
	}

	if cfg.Live {
		feed.drainAll()
		if err := tb.flushAll(); err != nil {
			return nil, err
		}
		// Drain: wait for tunnel servers to deliver all sent packets.
		var sent uint64
		for _, t := range tunnels {
			sent += t.Sent()
		}
		delivered := func() uint64 {
			var got uint64
			for j := range engines {
				engMu[j].Lock()
				got += engines[j].Stats().Packets
				engMu[j].Unlock()
			}
			return got
		}
		var local uint64
		for j := range shims {
			local += shims[j].Counters.Processed
		}
		if err := awaitDelivery(drainPolls, delivered, local+sent); err != nil {
			return nil, err
		}
	}

	// Every enqueued packet must be applied before the trailing tick, the
	// detection count and the final stats read.
	feed.stop()
	tel.finish(res.Sessions)

	// A malicious session is detected when some engine raised an alert on
	// its tuple (the supernode knows which sessions were malicious).
	detected := alertTuples(engines...)
	for _, tu := range malicious {
		if detected[tu] {
			res.DetectedSessions++
		}
	}

	agg := runSpan.Child("aggregation")
	defer agg.End()
	res.Nodes = make([]NodeStats, nNIDS)
	for j := 0; j < nNIDS; j++ {
		engMu[j].Lock()
		st := engines[j].Stats()
		alerts := len(engines[j].Alerts())
		engMu[j].Unlock()
		res.Nodes[j] = NodeStats{
			Node:          j,
			IsDC:          a.HasDC && j == sc.Graph.NumNodes(),
			WorkUnits:     st.WorkUnits(),
			Packets:       st.Packets,
			Processed:     shims[j].Counters.Processed,
			Replicated:    shims[j].Counters.Replicated,
			TunnelBytes:   tunnelBytes[j],
			Alerts:        alerts,
			FlowsBoth:     st.FlowsBothDirs,
			FlowsOneSided: st.FlowsOneSided,
		}
	}
	recordMetrics(cfg.Obs, res, shims)
	cfg.Log.Debug("emulation done",
		"malicious", res.MaliciousSessions, "detected", res.DetectedSessions,
		"ownership_errors", res.OwnershipErrors, "max_work_ex_dc", res.MaxWorkExDC())
	return res, nil
}

// alertTuples returns the canonical tuples of every alert the engines
// raised.
func alertTuples(engines ...*nids.Engine) map[packet.FiveTuple]bool {
	out := make(map[packet.FiveTuple]bool)
	for _, e := range engines {
		for _, al := range e.Alerts() {
			out[al.Tuple.Canonical()] = true
		}
	}
	return out
}

// recordMetrics exports one run's measurements into reg (a nil registry
// records nothing). Keys: histogram emulation.node.{work_units,packets},
// counters shim.{seen,processed,replicated,skipped,noclass}, tunnel.bytes,
// emulation.{sessions,malicious,detected,ownership_errors,alerts}.
func recordMetrics(reg *obs.Registry, res *Result, shims []*shim.Shim) {
	if reg == nil {
		return
	}
	work := reg.Histogram("emulation.node.work_units")
	pkts := reg.Histogram("emulation.node.packets")
	for _, n := range res.Nodes {
		work.Observe(float64(n.WorkUnits))
		pkts.Observe(float64(n.Packets))
		reg.Counter("tunnel.bytes").Add(n.TunnelBytes)
		reg.Counter("emulation.alerts").Add(uint64(n.Alerts))
	}
	for _, sh := range shims {
		c := sh.Counters
		reg.Counter("shim.seen").Add(c.Seen)
		reg.Counter("shim.processed").Add(c.Processed)
		reg.Counter("shim.replicated").Add(c.Replicated)
		reg.Counter("shim.skipped").Add(c.Skipped)
		reg.Counter("shim.noclass").Add(c.NoClass)
		reg.Counter("shim.dual").Add(c.Dual)
	}
	reg.Counter("emulation.sessions").Add(uint64(res.Sessions))
	reg.Counter("emulation.malicious").Add(uint64(res.MaliciousSessions))
	reg.Counter("emulation.detected").Add(uint64(res.DetectedSessions))
	reg.Counter("emulation.ownership_errors").Add(uint64(res.OwnershipErrors))
	reg.Gauge("emulation.max_work_ex_dc").Max(float64(res.MaxWorkExDC()))
}

// GenerateWorkload produces the deterministic session trace Run would
// replay for this configuration (same seed → byte-identical sessions).
func GenerateWorkload(cfg Config) []packet.Session {
	counts, _, gen := workload(cfg.withDefaults())
	return gen.Matrix(counts)
}

// workload returns the per-class session counts of cfg's trace, their sum
// and the generator that makes the trace; cfg must have its defaults. It
// is the one recipe for the trace, so Run streams exactly what
// GenerateWorkload returns and SaveTrace writes.
func workload(cfg Config) (counts [][]int, total int, gen *packet.Generator) {
	counts = sessionCounts(cfg.Assignment.Scenario, cfg.TotalSessions)
	for _, row := range counts {
		for _, c := range row {
			total += c
		}
	}
	gen = packet.NewGenerator(packet.GeneratorConfig{
		PacketsPerSession: cfg.PacketsPerSession,
		PayloadBytes:      cfg.PayloadBytes,
		MaliciousFraction: cfg.MaliciousFraction,
		Signatures:        sigsOf(cfg.Rules),
	}, cfg.GenSeed)
	return counts, total, gen
}

// SaveTrace writes the workload Run(assignment, totalSessions, seed) would
// replay to a trace file (packet.WriteTrace format). A failure to close
// the file is reported, since it can lose written data.
func SaveTrace(path string, a *core.Assignment, totalSessions int, seed int64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	sessions := GenerateWorkload(Config{Assignment: a, TotalSessions: totalSessions, GenSeed: seed})
	return packet.WriteTrace(f, sessions)
}

// sessionCounts scales the scenario's class volumes to the target total,
// guaranteeing at least one session per class.
func sessionCounts(sc *core.Scenario, total int) [][]int {
	n := sc.Graph.NumNodes()
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	tot := sc.TotalSessions()
	if tot == 0 {
		return counts
	}
	for _, cl := range sc.Classes {
		c := int(math.Round(cl.Sessions / tot * float64(total)))
		if c < 1 {
			c = 1
		}
		counts[cl.Src][cl.Dst] = c
	}
	return counts
}

func sigsOf(rules []nids.Rule) [][]byte {
	// Plant only textual signatures long enough to be unambiguous.
	var out [][]byte
	for _, r := range rules {
		if len(r.Pattern) >= 6 {
			out = append(out, r.Pattern)
		}
	}
	return out
}

// Live-mode drain budget: drainPolls polls, drainPollMs apart (5 s).
const (
	drainPolls  = 1000
	drainPollMs = 5
)

// waitFor polls cond up to polls times, drainPollMs apart, and reports
// whether it held before the budget ran out.
func waitFor(polls int, cond func() bool) bool {
	for i := 0; i < polls; i++ {
		if cond() {
			return true
		}
		sleepMs(drainPollMs)
	}
	return false
}

// awaitDelivery waits for the tunnel servers to hand the engines every
// packet the run sent. A run whose drain times out has incomplete stats, so
// it is an error — naming how far delivery got — never a result.
func awaitDelivery(polls int, delivered func() uint64, expected uint64) error {
	var got uint64
	if waitFor(polls, func() bool {
		got = delivered()
		return got >= expected
	}) {
		return nil
	}
	return fmt.Errorf("emulation: live tunnel drain timed out after %d ms: engines received %d of %d packets",
		polls*drainPollMs, got, expected)
}
