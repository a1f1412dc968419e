package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/nids"
	"nwids/internal/obs"
	"nwids/internal/packet"
	"nwids/internal/shim"
	"nwids/internal/topology"
)

const (
	packetsPerSession = 6
	scanK             = 20
	// spanBatch is how many sessions one layer span covers: a span around a
	// single 6 ns call would measure the clock.
	spanBatch = 1024
)

// packetStage measures the data plane two ways: the shipped driver
// (emulation.Run, everything included) and the bare session-source-to-
// alert path over pre-generated sessions (route, hash, decide at each path
// node, analyse on the owner).
type packetStage struct {
	w    workload
	seed int64

	a        *core.Assignment
	routing  *topology.Routing
	cfg      emulation.Config
	cfgs     map[int]*shim.Config
	sessions []packet.Session
	packets  int
	bytes    int

	ref    *emulation.Result // emulation.Run's answer for cfg
	alerts int               // what one engine that sees every session raises

	runs, paths, state []float64 // end-to-end samples
}

func (s *packetStage) setup() error {
	g := topology.ByName(pktTopo)
	sc := core.NewScenario(g, baseMatrices(g, s.seed, 1)[0], core.ScenarioOptions{})
	a, err := core.SolveReplication(sc, pktRepl)
	if err != nil {
		return err
	}
	s.a, s.routing = a, sc.Routing
	s.cfg = emulation.Config{
		Assignment: a, HashSeed: hashSeed(s.seed), GenSeed: s.seed,
		TotalSessions: s.w.Sessions, PacketsPerSession: packetsPerSession, PayloadBytes: s.w.Payload,
	}
	s.cfgs = shim.CompileConfigs(a, s.cfg.HashSeed)
	s.sessions = emulation.GenerateWorkload(s.cfg)
	s.packets, s.bytes = 0, 0
	for i := range s.sessions {
		s.packets += len(s.sessions[i].Packets)
		for _, p := range s.sessions[i].Packets {
			s.bytes += len(p.Payload)
		}
	}
	s.ref = nil
	return nil
}

// oracle returns the number of alerts a single engine raises when it sees
// every session: what a centralised NIDS would detect, and so what the
// fleet must detect between its nodes, no more and no less. (Run's own
// DetectedSessions is not usable as the expectation: with payloads shorter
// than a signature the generator marks sessions malicious it cannot plant
// anything in, and short patterns now and then match benign filler.)
func oracle(sessions []packet.Session) int {
	eng := nids.NewEngine(nids.DefaultRules(), scanK)
	for i := range sessions {
		eng.ProcessSession(sessions[i])
	}
	return len(eng.Alerts())
}

// checkRun tallies one emulation.Run: every session is an operation, failed
// when it had other than one owner or when the fleet's alerts differ from
// the oracle's.
func checkRun(rep *report, what string, res *emulation.Result, err error, alerts int) {
	if err != nil {
		rep.check(fmt.Errorf("%s: %w", what, err))
		return
	}
	rep.ops(res.Sessions)
	if res.OwnershipErrors > 0 {
		rep.failN(res.OwnershipErrors, "%s: %d sessions without exactly one owner", what, res.OwnershipErrors)
	}
	got := 0
	for _, n := range res.Nodes {
		got += n.Alerts
	}
	if got != alerts {
		rep.failN(max(got-alerts, alerts-got), "%s: fleet raised %d alerts, a single engine %d", what, got, alerts)
	}
}

// run times one whole emulation.Run of cfg, in nanoseconds per packet.
func (s *packetStage) run(rep *report, what string, cfg emulation.Config, alerts int) float64 {
	t0 := time.Now()
	res, err := emulation.Run(cfg)
	secs := time.Since(t0).Seconds()
	checkRun(rep, what, res, err, alerts)
	if err != nil {
		return 0
	}
	return secs * 1e9 / float64(res.Sessions*packetsPerSession)
}

// reference runs the oracle and emulation.Run once, untimed: the run warms
// the heap and its Result is what every path pass is compared with.
func (s *packetStage) reference(rep *report) bool {
	if s.ref == nil {
		s.alerts = oracle(s.sessions)
		res, err := emulation.Run(s.cfg)
		checkRun(rep, "reference run", res, err, s.alerts)
		if err == nil {
			s.ref = res
		}
	}
	return s.ref != nil
}

// fleet is one shim and one engine per NIDS node, as emulation.Run builds.
type fleet struct {
	shims   []*shim.Shim
	engines []*nids.Engine
}

func (s *packetStage) newFleet() fleet {
	n := s.a.NumNIDS()
	f := fleet{shims: make([]*shim.Shim, n), engines: make([]*nids.Engine, n)}
	for j := 0; j < n; j++ {
		f.shims[j] = shim.New(s.cfgs[j])
		f.engines[j] = nids.NewEngine(nids.DefaultRules(), scanK)
	}
	return f
}

func (f fleet) flows() int {
	n := 0
	for _, e := range f.engines {
		n += e.ActiveFlows()
	}
	return n
}

// pass pushes every session through f the way emulation.Run's hot loop
// does, minus the driver: route, hash once, decide at each path node,
// analyse on the owner. It returns the number of sessions that did not get
// exactly one owner.
func (s *packetStage) pass(f fleet) int {
	bad := 0
	seed := s.cfg.HashSeed
	for i := range s.sessions {
		sess := &s.sessions[i]
		nodes := s.routing.Path(sess.SrcPoP, sess.DstPoP).Nodes
		u := shim.HashTuple(sess.Tuple, seed)
		owner, owners := -1, 0
		for _, node := range nodes {
			switch d := f.shims[node].DecideFlow(sess.Packets[0], u, len(sess.Packets)); d.Act {
			case shim.Process:
				owner = node
				owners++
			case shim.Replicate:
				owner = d.Mirror
				owners++
			}
		}
		if owners != 1 {
			bad++
			continue
		}
		eng := f.engines[owner]
		for _, p := range sess.Packets {
			eng.ProcessPacket(p)
		}
	}
	return bad
}

// checkPass compares a finished pass with emulation.Run's Result: per-node
// packets, alerts and shim decisions equal, every shim's counters
// reconciled. One operation.
func (s *packetStage) checkPass(rep *report, f fleet, bad int) {
	rep.check(func() error {
		if bad > 0 {
			return fmt.Errorf("path pass: %d sessions without exactly one owner", bad)
		}
		for j, want := range s.ref.Nodes {
			sh, eng := f.shims[j], f.engines[j]
			if !sh.Counters.Reconciled() {
				return fmt.Errorf("path pass: node %d counters not reconciled: %+v", j, sh.Counters)
			}
			if sh.Counters.Processed != want.Processed || sh.Counters.Replicated != want.Replicated {
				return fmt.Errorf("path pass: node %d decided %d/%d, emulation.Run %d/%d",
					j, sh.Counters.Processed, sh.Counters.Replicated, want.Processed, want.Replicated)
			}
			if got := eng.Stats().Packets; got != want.Packets {
				return fmt.Errorf("path pass: node %d analysed %d packets, emulation.Run %d", j, got, want.Packets)
			}
			if got := len(eng.Alerts()); got != want.Alerts {
				return fmt.Errorf("path pass: node %d raised %d alerts, emulation.Run %d", j, got, want.Alerts)
			}
		}
		return nil
	}())
}

// pathSample times passes fresh-fleet passes (fleet construction and the
// comparison with emulation.Run outside the timed region) and returns
// nanoseconds per packet.
func (s *packetStage) pathSample(rep *report, passes int) float64 {
	var secs float64
	for k := 0; k < passes; k++ {
		f := s.newFleet()
		var bad int
		secs += timed(func() { bad = s.pass(f) })
		s.checkPass(rep, f, bad)
	}
	return secs * 1e9 / float64(passes*s.packets)
}

// passesPerSample makes a path sample last about 0.2 s: three passes over a
// small trace, one over a large one.
func (s *packetStage) passesPerSample(rep *report) int {
	f := s.newFleet()
	var bad int
	warm := timed(func() { bad = s.pass(f) })
	s.checkPass(rep, f, bad)
	return max(1, min(3, int(0.2/warm)))
}

// stateBytes loads a fresh fleet and returns the heap it grew by per
// active flow.
func (s *packetStage) stateBytes(rep *report) float64 {
	var m0, m1 runtime.MemStats
	f := s.newFleet()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	bad := s.pass(f)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.checkPass(rep, f, bad)
	return ratio(float64(m1.HeapAlloc)-float64(m0.HeapAlloc), float64(f.flows()))
}

// samplers returns the stage's three end-to-end measurements; none when
// the reference run failed.
func (s *packetStage) samplers(share float64, rep *report) []*sampler {
	if !s.reference(rep) {
		return nil
	}
	passes := s.passesPerSample(rep)
	return []*sampler{
		{share: share * 0.6, floor: 5, take: func() {
			s.runs = append(s.runs, s.run(rep, "emulation.Run", s.cfg, s.alerts))
		}},
		{share: share * 0.3, floor: 9, take: func() {
			s.paths = append(s.paths, s.pathSample(rep, passes))
		}},
		{share: share * 0.1, floor: 3, take: func() {
			s.state = append(s.state, s.stateBytes(rep))
		}},
	}
}

func (s *packetStage) finish(rep *report) {
	rep.timing("run_ns_per_pkt", "ns", s.runs, 1)
	rep.timing("path_ns_per_pkt", "ns", s.paths, 1)
	rep.timing("state_bytes_per_flow", "B", s.state, 1)
}

// layered is the traced counterpart of pass: the same work, but one layer
// at a time over batches of spanBatch sessions, so each layer gets a span
// long enough to time. It also scans every payload with a bare matcher,
// feeds a bare scan detector and frames every packet through the tunnel
// codec, since those layers have no call of their own in the path. It
// returns the number of DecideFlow calls.
func (s *packetStage) layered(rec *recorder, f fleet) (decides int) {
	seed := s.cfg.HashSeed
	nodes := make([][]int, spanBatch)
	hashes := make([]uint64, spanBatch)
	owners := make([]int, spanBatch)
	matcher := nids.NewMatcher(nids.Patterns(nids.DefaultRules()))
	scan := nids.NewScanDetector(scanK)
	var matches []nids.Match
	var wire bytes.Buffer

	for lo := 0; lo < len(s.sessions); lo += spanBatch {
		batch := s.sessions[lo:min(lo+spanBatch, len(s.sessions))]

		id := rec.begin("topology.path")
		for i := range batch {
			nodes[i] = s.routing.Path(batch[i].SrcPoP, batch[i].DstPoP).Nodes
		}
		rec.end(id)

		id = rec.begin("shim.hash")
		for i := range batch {
			hashes[i] = shim.HashTuple(batch[i].Tuple, seed)
		}
		rec.end(id)

		id = rec.begin("shim.decide")
		for i := range batch {
			owners[i] = -1
			for _, node := range nodes[i] {
				switch d := f.shims[node].DecideFlow(batch[i].Packets[0], hashes[i], len(batch[i].Packets)); d.Act {
				case shim.Process:
					owners[i] = node
				case shim.Replicate:
					owners[i] = d.Mirror
				}
			}
			decides += len(nodes[i])
		}
		rec.end(id)

		id = rec.begin("nids.engine")
		for i := range batch {
			if owners[i] < 0 {
				continue
			}
			eng := f.engines[owners[i]]
			for _, p := range batch[i].Packets {
				eng.ProcessPacket(p)
			}
		}
		rec.end(id)

		id = rec.begin("nids.ac")
		for i := range batch {
			for _, p := range batch[i].Packets {
				_, matches = matcher.ScanStreamInto(0, p.Payload, matches[:0])
				sink += uint64(len(matches))
			}
		}
		rec.end(id)

		id = rec.begin("nids.scan_observe")
		for i := range batch {
			scan.Observe(batch[i].Tuple.SrcIP, batch[i].Tuple.DstIP)
		}
		rec.end(id)

		wire.Reset()
		id = rec.begin("shim.tunnel_encode")
		for i := range batch {
			for _, p := range batch[i].Packets {
				if err := shim.WritePacket(&wire, p); err != nil {
					panic(err) // bytes.Buffer writes cannot fail
				}
			}
		}
		rec.end(id)

		id = rec.begin("shim.tunnel_decode")
		for i := range batch {
			for range batch[i].Packets {
				p, err := shim.ReadPacket(&wire)
				if err != nil {
					panic(err) // reading back what was just written
				}
				sink += uint64(len(p.Payload))
			}
		}
		rec.end(id)
	}
	sink += uint64(scan.NumSources())
	return decides
}

// pathLayers are the layers whose self times add up to the path.
var pathLayers = []string{"topology.path", "shim.hash", "shim.decide", "nids.engine"}

func (s *packetStage) traced(budget time.Duration, rec *recorder, rep *report) (float64, float64) {
	if !s.reference(rep) {
		return 0, 0
	}
	pkts := float64(s.packets)
	share := func(pct int) time.Duration { return budget * time.Duration(pct) / 100 }

	// Layer passes, traced and untraced in turn.
	from := len(rec.spans)
	var decides int
	var loaded fleet
	tracedSecs, plainSecs := pairs(share(18), 2, func(i int) float64 {
		rec.rep = i
		f := s.newFleet()
		id := rec.begin("path.layered")
		secs := timed(func() { decides = s.layered(rec, f) })
		rec.end(id)
		s.checkPass(rep, f, 0)
		loaded = f
		return secs
	}, func(int) float64 {
		f := s.newFleet()
		return timed(func() { s.layered(nil, f) })
	})
	layer := map[string][]float64{}
	var pathSum []float64
	selfByRep := selfByName(rec.spans[from:])
	for r := range tracedSecs {
		self := selfByRep[r]
		for name, secs := range self {
			layer[name] = append(layer[name], secs)
		}
		var t float64
		for _, name := range pathLayers {
			t += self[name]
		}
		pathSum = append(pathSum, t)
	}
	perSession, perPkt := 1e9/float64(len(s.sessions)), 1e9/pkts

	// The interleaved path, for the layers to add back up to.
	paths := collect(share(8), 3, 1000, func(int) float64 { return s.pathSample(rep, 1) })
	pathNs := summarize(paths).Median

	// The shipped driver, bare and with each kind of observability on.
	plain := collect(share(18), 2, 1000, func(int) float64 {
		return s.run(rep, "emulation.Run", s.cfg, s.alerts)
	})
	runNs := summarize(plain).Median
	withObs := collect(share(12), 1, 3, func(int) float64 {
		cfg := s.cfg
		cfg.Obs = obs.NewRegistry()
		return s.run(rep, "emulation.Run(obs)", cfg, s.alerts)
	})
	withTrace := collect(share(12), 1, 3, func(int) float64 {
		cfg := s.cfg
		cfg.Trace = obs.NewTracer(nil)
		id := rec.begin("emulation.run_trace")
		ns := s.run(rep, "emulation.Run(trace)", cfg, s.alerts)
		rec.end(id)
		rec.adopt(id, cfg.Trace.Spans())
		return ns
	})
	workers2 := collect(share(12), 1, 3, func(int) float64 {
		cfg := s.cfg
		cfg.Workers = 2
		return s.run(rep, "emulation.Run(workers=2)", cfg, s.alerts)
	})
	liveCfg := s.cfg
	liveCfg.TotalSessions = max(s.cfg.TotalSessions/5, 100)
	liveCfg.Live = true
	liveAlerts := oracle(emulation.GenerateWorkload(liveCfg))
	live := collect(share(8), 1, 3, func(int) float64 {
		return s.run(rep, "emulation.Run(live, loopback TCP)", liveCfg, liveAlerts)
	})

	generate := collect(share(8), 2, 1000, func(int) float64 {
		return timed(func() { sink += uint64(len(emulation.GenerateWorkload(s.cfg))) })
	})
	genNs := summarize(generate).Median * perPkt
	engines := collect(share(2), 5, 1000, func(int) float64 {
		return timed(func() {
			for j := 0; j < s.a.NumNIDS(); j++ {
				sink += uint64(nids.NewEngine(nids.DefaultRules(), scanK).ActiveFlows())
			}
		})
	})

	rep.timing("emulation.generate_ns_per_pkt", "ns", generate, perPkt)
	rep.timing("emulation.engines_build_ms", "ms", engines, 1e3)
	rep.value("emulation.driver_ns_per_pkt", "ns", runNs-genNs-summarize(engines).Median*perPkt-pathNs)
	rep.timing("emulation.run_obs_ns_per_pkt", "ns", withObs, 1)
	rep.timing("emulation.run_trace_ns_per_pkt", "ns", withTrace, 1)
	rep.timing("emulation.run_workers2_ns_per_pkt", "ns", workers2, 1)
	rep.timing("emulation.run_live_ns_per_pkt", "ns", live, 1)

	rep.timing("topology.path_ns", "ns", layer["topology.path"], perSession)
	rep.timing("shim.hash_ns", "ns", layer["shim.hash"], perSession)
	rep.timing("shim.decide_ns", "ns", layer["shim.decide"], ratio(1e9, float64(decides)))
	rep.value("shim.decide_calls_per_pkt", "count", float64(decides)/pkts)
	rep.timing("shim.tunnel_encode_ns_per_pkt", "ns", layer["shim.tunnel_encode"], perPkt)
	rep.timing("shim.tunnel_decode_ns_per_pkt", "ns", layer["shim.tunnel_decode"], perPkt)
	rep.timing("nids.engine_ns_per_pkt", "ns", layer["nids.engine"], perPkt)
	rep.timing("nids.ac_ns_per_byte", "ns", layer["nids.ac"], ratio(1e9, float64(s.bytes)))
	rep.timing("nids.ac_ns_per_pkt", "ns", layer["nids.ac"], perPkt)
	rep.value("nids.flow_ns_per_pkt", "ns",
		(summarize(layer["nids.engine"]).Median-summarize(layer["nids.ac"]).Median)*perPkt)
	rep.timing("nids.scan_observe_ns", "ns", layer["nids.scan_observe"], perSession)

	// Engine.Stats on the busiest loaded engine: what each telemetry tick
	// of emulation.Run pays per node.
	busiest := loaded.engines[0]
	for _, e := range loaded.engines {
		if e.ActiveFlows() > busiest.ActiveFlows() {
			busiest = e
		}
	}
	stats := collect(share(2), 5, 1000, func(int) float64 {
		return timed(func() { sink += busiest.Stats().FlowsBothDirs })
	})
	rep.timing("nids.stats_us", "us", stats, 1e6)

	var m0, m1 runtime.MemStats
	f := s.newFleet()
	runtime.ReadMemStats(&m0)
	bad := s.pass(f)
	runtime.ReadMemStats(&m1)
	s.checkPass(rep, f, bad)
	rep.value("nids.allocs_per_pkt", "count", float64(m1.Mallocs-m0.Mallocs)/pkts)

	rep.value("path_sum_ratio", "ratio", ratio(summarize(pathSum).Median*perPkt, pathNs))
	return summarize(tracedSecs).Median, summarize(plainSecs).Median
}
