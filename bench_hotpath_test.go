// Per-packet hot-path benchmarks: the pps/Gbps rig behind the README's
// Performance table. BenchmarkPacketPath replays an emulation workload
// through the full per-packet path (per-node shim dispatch plus owning-
// engine analysis) twice — once through the current zero-allocation
// implementation and once through a faithful replica of the seed path
// (map-keyed flow table with per-flow pointers, closure-fed Aho-Corasick,
// per-packet path reversal and per-session owner maps) — and records
// ns/packet, pps, Gbps, allocs/packet and the speedup into the bench
// registry, so BENCH_<rev>.json tracks the hot path's trajectory.
package nwids_test

import (
	"sync"
	"testing"

	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/nids"
	"nwids/internal/packet"
	"nwids/internal/shim"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// benchPayloadBytes is the workload payload size. The rig models the
// standard small-packet pps setup — minimum-size (64B) wire frames, which
// after L3/L4 headers carry only a few payload bytes — so the per-packet
// overhead this path optimizes (dispatch, flow lookup, allocation)
// dominates over the byte-proportional automaton scan.
const benchPayloadBytes = 6

// benchHashSeed is the shim hash seed of the shared fixture.
const benchHashSeed = 1

// packetPathData is the shared fixture: an Internet2 replication
// assignment, its compiled shims, and a generated session workload. Shims
// and engines are slice-indexed by node, as in the emulation.
type packetPathData struct {
	a        *core.Assignment
	nNodes   int
	cfgs     []*shim.Config
	shims    []*shim.Shim
	sessions []packet.Session
	packets  int
	bytes    int64
}

func newPacketPathData(b testing.TB, totalSessions int) *packetPathData {
	b.Helper()
	g := topology.ByName("Internet2")
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	a, err := core.SolveReplication(s, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := &packetPathData{a: a, nNodes: a.NumNIDS()}
	d.cfgs = make([]*shim.Config, d.nNodes)
	d.shims = make([]*shim.Shim, d.nNodes)
	for node, cfg := range shim.CompileConfigs(a, benchHashSeed) {
		d.cfgs[node] = cfg
		d.shims[node] = shim.New(cfg)
	}
	d.sessions = emulation.GenerateWorkload(emulation.Config{
		Assignment: a, TotalSessions: totalSessions, PayloadBytes: benchPayloadBytes,
	})
	for _, sess := range d.sessions {
		d.packets += len(sess.Packets)
		for _, p := range sess.Packets {
			d.bytes += int64(len(p.Payload))
		}
	}
	return d
}

// fastPass replays the workload once through the current hot path: compiled
// shim dispatch (one hash and one per-node decision per session, exact by
// construction) and the pooled zero-allocation engines, inline.
func (d *packetPathData) fastPass(engines []*nids.Engine) {
	routing := d.a.Scenario.Routing
	for _, sess := range d.sessions {
		nodes := routing.Path(sess.SrcPoP, sess.DstPoP).Nodes
		u := shim.HashTuple(sess.Tuple, benchHashSeed)
		// Every path node decides the flow once; the assignment pins each
		// session to exactly one engine (the emulation asserts this as
		// OwnershipErrors == 0), which then sees the packets in order.
		var target *nids.Engine
		for _, node := range nodes {
			switch dec := d.shims[node].DecideFlow(sess.Packets[0], u, len(sess.Packets)); dec.Act {
			case shim.Process:
				target = engines[node]
			case shim.Replicate:
				target = engines[dec.Mirror]
			}
		}
		if target == nil {
			continue
		}
		for _, p := range sess.Packets {
			target.ProcessPacket(p)
		}
	}
}

// shardPool mirrors the emulation's sharded engine feed: one goroutine per
// node consuming packet batches, with two buffers per node rotating
// through a free list so the steady state allocates nothing.
type shardPool struct {
	engines []*nids.Engine
	queues  []chan []packet.Packet
	free    []chan []packet.Packet
	pend    [][]packet.Packet
	open    []sync.WaitGroup
	wg      sync.WaitGroup
}

func newShardPool(engines []*nids.Engine) *shardPool {
	n := len(engines)
	sp := &shardPool{
		engines: engines,
		queues:  make([]chan []packet.Packet, n),
		free:    make([]chan []packet.Packet, n),
		pend:    make([][]packet.Packet, n),
		open:    make([]sync.WaitGroup, n),
	}
	for i := 0; i < n; i++ {
		sp.queues[i] = make(chan []packet.Packet, 2)
		sp.free[i] = make(chan []packet.Packet, 3)
		sp.free[i] <- make([]packet.Packet, 0, 128)
		sp.free[i] <- make([]packet.Packet, 0, 128)
		sp.pend[i] = make([]packet.Packet, 0, 128)
		sp.wg.Add(1)
		go func(i int) {
			defer sp.wg.Done()
			for batch := range sp.queues[i] {
				for _, p := range batch {
					sp.engines[i].ProcessPacket(p)
				}
				sp.open[i].Done()
				sp.free[i] <- batch[:0]
			}
		}(i)
	}
	return sp
}

func (sp *shardPool) flush(node int) {
	if len(sp.pend[node]) == 0 {
		return
	}
	sp.open[node].Add(1)
	sp.queues[node] <- sp.pend[node]
	sp.pend[node] = <-sp.free[node]
}

func (sp *shardPool) process(node int, p packet.Packet) {
	sp.pend[node] = append(sp.pend[node], p)
	if len(sp.pend[node]) == cap(sp.pend[node]) {
		sp.flush(node)
	}
}

// barrier flushes all pending batches and waits until every worker has
// applied everything handed to it.
func (sp *shardPool) barrier() {
	for node := range sp.pend {
		sp.flush(node)
	}
	for node := range sp.open {
		sp.open[node].Wait()
	}
}

func (sp *shardPool) stop() {
	sp.barrier()
	for node := range sp.queues {
		close(sp.queues[node])
	}
	sp.wg.Wait()
}

// shardedPass replays the workload with dispatch on the driver and engine
// work fanned out per node, as emulation.Run does at Workers > 1.
func (d *packetPathData) shardedPass(sp *shardPool) {
	routing := d.a.Scenario.Routing
	for _, sess := range d.sessions {
		nodes := routing.Path(sess.SrcPoP, sess.DstPoP).Nodes
		u := shim.HashTuple(sess.Tuple, benchHashSeed)
		target := -1
		for _, node := range nodes {
			switch dec := d.shims[node].DecideFlow(sess.Packets[0], u, len(sess.Packets)); dec.Act {
			case shim.Process:
				target = node
			case shim.Replicate:
				target = dec.Mirror
			}
		}
		if target < 0 {
			continue
		}
		for _, p := range sess.Packets {
			sp.process(target, p)
		}
	}
	sp.barrier()
}

// refPass replays the workload once through the seed path replica: float
// range dispatch per node, per-packet path reversal, per-session owner
// maps, and seed engines.
func (d *packetPathData) refPass(engines []*seedEngine) {
	routing := d.a.Scenario.Routing
	for _, sess := range d.sessions {
		owner := make(map[int]bool)
		for _, p := range sess.Packets {
			path := routing.Path(sess.SrcPoP, sess.DstPoP)
			if p.Dir == packet.Reverse {
				path = path.Reverse()
			}
			for _, node := range path.Nodes {
				switch dec := shim.ReferenceDecide(d.cfgs[node], p); dec.Act {
				case shim.Process:
					engines[node].process(p)
					owner[node] = true
				case shim.Replicate:
					engines[dec.Mirror].process(p)
					owner[dec.Mirror] = true
				}
			}
		}
		_ = owner
	}
}

func (d *packetPathData) fastEngines() []*nids.Engine {
	engines := make([]*nids.Engine, d.nNodes)
	for node := range engines {
		engines[node] = nids.NewEngine(nids.DefaultRules(), 20)
	}
	return engines
}

func (d *packetPathData) seedEngines(m *seedMatcher) []*seedEngine {
	engines := make([]*seedEngine, d.nNodes)
	for node := range engines {
		engines[node] = newSeedEngine(nids.DefaultRules(), m)
	}
	return engines
}

// BenchmarkPacketPath is the headline hot-path benchmark: one op is a full
// workload pass. fast is the current implementation (engines reset in
// place between passes); ref replays the seed implementation (engines
// rebuilt per pass, as the seed's epoch rollover did). The recorded
// bench.packetpath.* gauges (pps, ns_per_pkt, gbps, allocs_per_pkt,
// speedup) feed the BENCH_<rev>.json trajectory.
func BenchmarkPacketPath(b *testing.B) {
	defer benchRecord(b)
	d := newPacketPathData(b, 400)
	var fastSec, shardSec, refSec float64
	b.Run("fast", func(b *testing.B) {
		defer benchRecord(b)
		engines := d.fastEngines()
		d.fastPass(engines) // warm: tables and buffers at capacity
		for _, e := range engines {
			e.ResetEpoch()
		}
		b.SetBytes(d.bytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.fastPass(engines)
			for _, e := range engines {
				e.ResetEpoch()
			}
		}
		fastSec = b.Elapsed().Seconds() / float64(b.N)
		allocs := testing.AllocsPerRun(1, func() {
			d.fastPass(engines)
			for _, e := range engines {
				e.ResetEpoch()
			}
		})
		benchReg.Gauge("bench.packetpath.fast.allocs_per_pkt").Max(allocs / float64(d.packets))
	})
	b.Run("sharded", func(b *testing.B) {
		defer benchRecord(b)
		engines := d.fastEngines()
		sp := newShardPool(engines)
		defer sp.stop()
		d.shardedPass(sp) // warm
		for _, e := range engines {
			e.ResetEpoch()
		}
		b.SetBytes(d.bytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.shardedPass(sp)
			for _, e := range engines {
				e.ResetEpoch()
			}
		}
		shardSec = b.Elapsed().Seconds() / float64(b.N)
	})
	b.Run("ref", func(b *testing.B) {
		defer benchRecord(b)
		m := newSeedMatcher(nids.Patterns(nids.DefaultRules()))
		b.SetBytes(d.bytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.refPass(d.seedEngines(m))
		}
		refSec = b.Elapsed().Seconds() / float64(b.N)
	})
	pkts := float64(d.packets)
	if fastSec > 0 {
		benchReg.Gauge("bench.packetpath.fast.ns_per_pkt").Max(fastSec * 1e9 / pkts)
		benchReg.Gauge("bench.packetpath.fast.pps").Max(pkts / fastSec)
		benchReg.Gauge("bench.packetpath.fast.gbps").Max(float64(d.bytes) * 8 / fastSec / 1e9)
	}
	if shardSec > 0 {
		benchReg.Gauge("bench.packetpath.sharded.ns_per_pkt").Max(shardSec * 1e9 / pkts)
		benchReg.Gauge("bench.packetpath.sharded.pps").Max(pkts / shardSec)
		benchReg.Gauge("bench.packetpath.sharded.gbps").Max(float64(d.bytes) * 8 / shardSec / 1e9)
	}
	if refSec > 0 {
		benchReg.Gauge("bench.packetpath.ref.ns_per_pkt").Max(refSec * 1e9 / pkts)
		benchReg.Gauge("bench.packetpath.ref.pps").Max(pkts / refSec)
	}
	if fastSec > 0 && refSec > 0 {
		benchReg.Gauge("bench.packetpath.speedup").Max(refSec / fastSec)
	}
	if shardSec > 0 && refSec > 0 {
		benchReg.Gauge("bench.packetpath.sharded.speedup").Max(refSec / shardSec)
	}
}

// BenchmarkDecide isolates the shim decision, tuple hash included:
// compiled integer-bound dispatch against the seed's map-plus-float-range
// reference semantics.
func BenchmarkDecide(b *testing.B) {
	defer benchRecord(b)
	d := newPacketPathData(b, 64)
	sh, cfg := d.shims[0], d.cfgs[0]
	gen := newBenchPacketGen()
	pkts := gen(4096)
	var compiledSec, refSec float64
	b.Run("compiled", func(b *testing.B) {
		defer benchRecord(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			sh.DecideFlow(p, shim.HashTuple(p.Tuple, benchHashSeed), 1)
		}
		compiledSec = b.Elapsed().Seconds() / float64(b.N)
	})
	b.Run("reference", func(b *testing.B) {
		defer benchRecord(b)
		for i := 0; i < b.N; i++ {
			shim.ReferenceDecide(cfg, pkts[i%len(pkts)])
		}
		refSec = b.Elapsed().Seconds() / float64(b.N)
	})
	if compiledSec > 0 && refSec > 0 {
		benchReg.Gauge("bench.decide.speedup").Max(refSec / compiledSec)
	}
}

// BenchmarkScanStream isolates the Aho-Corasick inner loop over realistic
// payloads: the buffer-reusing entry point against the seed's closure-fed
// per-state-slice layout.
func BenchmarkScanStream(b *testing.B) {
	defer benchRecord(b)
	pats := nids.Patterns(nids.DefaultRules())
	m := nids.NewMatcher(pats)
	sm := newSeedMatcher(pats)
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2, PayloadBytes: 256}, 7)
	var payloads [][]byte
	var total int64
	for i := 0; i < 64; i++ {
		s := gen.Session(0, 1+i%10)
		for _, p := range s.Packets {
			payloads = append(payloads, p.Payload)
			total += int64(len(p.Payload))
		}
	}
	b.Run("into", func(b *testing.B) {
		defer benchRecord(b)
		b.SetBytes(total)
		b.ReportAllocs()
		var buf []nids.Match
		state := int32(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, data := range payloads {
				state, buf = m.ScanStreamInto(state, data, buf[:0])
			}
		}
	})
	b.Run("closure", func(b *testing.B) {
		defer benchRecord(b)
		b.SetBytes(total)
		b.ReportAllocs()
		state := int32(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, data := range payloads {
				var matched []nids.Match
				state, _ = sm.scanStream(state, data, func(mt nids.Match) {
					matched = append(matched, mt)
				})
				_ = matched
			}
		}
	})
}

// --- Seed path replica ---
//
// The types below transliterate the pre-optimization implementation (kept
// verbatim from the repository's history) so the benchmarks above always
// compare against the same executable baseline: a matcher with per-state
// output slices and closure emission, an engine keyed by a Go map holding
// per-flow pointers, and a scan detector of nested per-source maps.

// seedMatcher is the seed Aho-Corasick layout: per-state [256] rows and
// per-state output slices walked on every byte.
type seedMatcher struct {
	next [][256]int32
	out  [][]int32
}

func newSeedMatcher(patterns [][]byte) *seedMatcher {
	m := &seedMatcher{}
	goTo := [][256]int32{{}}
	m.out = [][]int32{nil}
	for pi, p := range patterns {
		state := int32(0)
		for _, b := range p {
			nxt := goTo[state][b]
			if nxt == 0 {
				nxt = int32(len(goTo))
				goTo = append(goTo, [256]int32{})
				m.out = append(m.out, nil)
				goTo[state][b] = nxt
			}
			state = nxt
		}
		m.out[state] = append(m.out[state], int32(pi))
	}
	n := len(goTo)
	fail := make([]int32, n)
	m.next = make([][256]int32, n)
	queue := make([]int32, 0, n)
	for b := 0; b < 256; b++ {
		s := goTo[0][b]
		m.next[0][b] = s
		if s != 0 {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		m.out[u] = append(m.out[u], m.out[fail[u]]...)
		for b := 0; b < 256; b++ {
			v := goTo[u][b]
			if v == 0 {
				m.next[u][b] = m.next[fail[u]][b]
				continue
			}
			fail[v] = m.next[fail[u]][b]
			m.next[u][b] = v
			queue = append(queue, v)
		}
	}
	return m
}

func (m *seedMatcher) scanStream(state int32, data []byte, emit func(nids.Match)) (int32, int) {
	n := 0
	for i, b := range data {
		state = m.next[state][b]
		for _, pi := range m.out[state] {
			n++
			if emit != nil {
				emit(nids.Match{Pattern: int(pi), End: i + 1})
			}
		}
	}
	return state, n
}

// seedFlow is the seed per-flow state, reached through a map of pointers.
type seedFlow struct {
	fwdState, revState int32
	seenFwd, seenRev   bool
}

// seedEngine is the seed engine: map flow table, closure-fed matcher, and
// nested-map scan detector.
type seedEngine struct {
	rules   []nids.Rule
	matcher *seedMatcher
	flows   map[packet.FiveTuple]*seedFlow
	dests   map[uint32]map[uint32]struct{}
	alerts  []nids.Alert
}

func newSeedEngine(rules []nids.Rule, m *seedMatcher) *seedEngine {
	return &seedEngine{
		rules:   rules,
		matcher: m,
		flows:   make(map[packet.FiveTuple]*seedFlow),
		dests:   make(map[uint32]map[uint32]struct{}),
	}
}

func (e *seedEngine) process(p packet.Packet) {
	key := p.Tuple.Canonical()
	fs, ok := e.flows[key]
	if !ok {
		fs = &seedFlow{}
		e.flows[key] = fs
	}
	var st *int32
	if p.Tuple == key {
		st = &fs.fwdState
		fs.seenFwd = true
	} else {
		st = &fs.revState
		fs.seenRev = true
	}
	var matched []nids.Match
	*st, _ = e.matcher.scanStream(*st, p.Payload, func(m nids.Match) {
		matched = append(matched, m)
	})
	for _, m := range matched {
		r := e.rules[m.Pattern]
		if !r.MatchesHeader(p.Tuple.Proto, p.Tuple.SrcPort, p.Tuple.DstPort) {
			continue
		}
		e.alerts = append(e.alerts, nids.Alert{RuleID: r.ID, Name: r.Name, Severity: r.Severity, Tuple: p.Tuple})
	}
	if p.Dir == packet.Forward {
		m, ok := e.dests[p.Tuple.SrcIP]
		if !ok {
			m = make(map[uint32]struct{})
			e.dests[p.Tuple.SrcIP] = m
		}
		m[p.Tuple.DstIP] = struct{}{}
	}
}
