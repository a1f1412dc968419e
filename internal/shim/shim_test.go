package shim

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"nwids/internal/core"
	"nwids/internal/packet"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

func TestHashBidirectional(t *testing.T) {
	f := func(proto uint8, sip, dip uint32, sp, dp uint16, seed uint32) bool {
		tup := packet.FiveTuple{Proto: proto, SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp}
		return HashTuple(tup, seed) == HashTuple(tup.Reverse(), seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashFractionRange(t *testing.T) {
	f := func(proto uint8, sip, dip uint32, sp, dp uint16) bool {
		tup := packet.FiveTuple{Proto: proto, SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp}
		h := HashFraction(tup, 0)
		return h >= 0 && h < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashUniformity(t *testing.T) {
	// 10 equal buckets over 20k distinct tuples: each bucket should hold
	// 2000 ± 25%.
	const n, buckets = 20000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		tup := packet.FiveTuple{
			Proto: packet.ProtoTCP,
			SrcIP: uint32(0x0a000000 + i), DstIP: uint32(0x0b000000 + i*7),
			SrcPort: uint16(i), DstPort: 80,
		}
		counts[int(HashFraction(tup, 1)*buckets)]++
	}
	for b, c := range counts {
		if c < n/buckets*3/4 || c > n/buckets*5/4 {
			t.Fatalf("bucket %d has %d of %d (poor uniformity)", b, c, n)
		}
	}
}

func TestHashSeedChangesMapping(t *testing.T) {
	tup := packet.FiveTuple{Proto: 6, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	if HashTuple(tup, 1) == HashTuple(tup, 2) {
		t.Fatal("different seeds should generally produce different hashes")
	}
}

func TestPartitionClassTiles(t *testing.T) {
	actions := []core.ActionFrac{
		{Node: 2, Via: -1, Frac: 0.25},
		{Node: 0, Via: -1, Frac: 0.25},
		{Node: 5, Via: 2, Frac: 0.4},
		{Node: 5, Via: 0, Frac: 0.1},
	}
	ranges := PartitionClass(actions)
	if len(ranges) != 4 {
		t.Fatalf("ranges = %d", len(ranges))
	}
	if ranges[0].Lo != 0 {
		t.Fatal("first range must start at 0")
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo != ranges[i-1].Hi {
			t.Fatalf("gap between ranges %d and %d", i-1, i)
		}
	}
	if ranges[len(ranges)-1].Hi != 1 {
		t.Fatal("last range must end at 1")
	}
	// Local ranges come first (§7.1 runs the p loop before the o loop).
	if ranges[0].Via != -1 || ranges[1].Via != -1 {
		t.Fatal("local p ranges must precede offload ranges")
	}
	if ranges[2].Via < 0 || ranges[3].Via < 0 {
		t.Fatal("offload ranges must follow")
	}
}

func TestPartitionClassDropsZeroFractions(t *testing.T) {
	ranges := PartitionClass([]core.ActionFrac{
		{Node: 0, Via: -1, Frac: 0},
		{Node: 1, Via: -1, Frac: 1},
	})
	if len(ranges) != 1 || ranges[0].Node != 1 {
		t.Fatalf("ranges = %+v", ranges)
	}
}

// buildAssignment solves a small replication instance for end-to-end tests.
func buildAssignment(t testing.TB) *core.Assignment {
	t.Helper()
	g := topology.Internet2()
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	a, err := core.SolveReplication(s, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestShimExactlyOneOwner is the central §7 correctness property: for any
// session, exactly one NIDS node ends up processing it — either one on-path
// shim keeps it locally, or exactly one on-path shim replicates it — and
// both directions make the identical decision.
func TestShimExactlyOneOwner(t *testing.T) {
	a := buildAssignment(t)
	cfgs := CompileConfigs(a, 42)
	shims := map[int]*Shim{}
	for id, cfg := range cfgs {
		shims[id] = New(cfg)
	}
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 4}, 77)
	routing := a.Scenario.Routing
	for trial := 0; trial < 2000; trial++ {
		cl := &a.Scenario.Classes[trial%len(a.Scenario.Classes)]
		sess := gen.Session(cl.Src, cl.Dst)
		ownersFwd := ownersOf(t, shims, routing, sess, packet.Forward)
		ownersRev := ownersOf(t, shims, routing, sess, packet.Reverse)
		if len(ownersFwd) != 1 {
			t.Fatalf("session %v has %d owners (fwd): %v", sess.Tuple, len(ownersFwd), ownersFwd)
		}
		if len(ownersRev) != 1 || ownersRev[0] != ownersFwd[0] {
			t.Fatalf("directions disagree: fwd %v rev %v", ownersFwd, ownersRev)
		}
	}
}

// decide is the shim's decision for one packet, Skip when it makes none.
func decide(s *Shim, p packet.Packet) Decision {
	return s.DecideFlow(p, HashTuple(p.Tuple, s.Config().Seed), 1)
}

// ownersOf walks one direction of a session along its path and collects the
// set of NIDS nodes that would process it (locally or via replication).
func ownersOf(t *testing.T, shims map[int]*Shim, routing *topology.Routing, sess packet.Session, dir packet.Direction) []int {
	t.Helper()
	var p packet.Packet
	for _, pk := range sess.Packets {
		if pk.Dir == dir {
			p = pk
			break
		}
	}
	if p.Payload == nil {
		t.Fatal("session missing direction")
	}
	path := routing.Path(sess.SrcPoP, sess.DstPoP)
	if dir == packet.Reverse {
		path = path.Reverse()
	}
	var owners []int
	for _, node := range path.Nodes {
		switch d := decide(shims[node], p); d.Act {
		case Process:
			owners = append(owners, node)
		case Replicate:
			owners = append(owners, d.Mirror)
		}
	}
	return owners
}

// TestShimFractionsMatchLP checks that realized per-node session fractions
// statistically match the LP's fractional assignment.
func TestShimFractionsMatchLP(t *testing.T) {
	a := buildAssignment(t)
	cfgs := CompileConfigs(a, 7)
	shims := map[int]*Shim{}
	for id, cfg := range cfgs {
		shims[id] = New(cfg)
	}
	// Use the highest-volume class for statistical significance.
	best := 0
	for c := range a.Scenario.Classes {
		if a.Scenario.Classes[c].Sessions > a.Scenario.Classes[best].Sessions {
			best = c
		}
	}
	cl := &a.Scenario.Classes[best]
	want := map[int]float64{}
	for _, act := range a.Actions[best] {
		want[act.Node] += act.Frac
	}
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2}, 3)
	const n = 8000
	got := map[int]float64{}
	for i := 0; i < n; i++ {
		sess := gen.Session(cl.Src, cl.Dst)
		owners := ownersOf(t, shims, a.Scenario.Routing, sess, packet.Forward)
		got[owners[0]] += 1.0 / n
	}
	for node, w := range want {
		if math.Abs(got[node]-w) > 0.03 {
			t.Fatalf("node %d: realized %.3f vs LP %.3f", node, got[node], w)
		}
	}
}

func TestShimCountersAndNoClass(t *testing.T) {
	cfg := &Config{NodeID: 0, Seed: 1, Rules: map[ClassKey][]RangeRule{
		{SrcPoP: 1, DstPoP: 2}: {{Lo: 0, Hi: 1, Act: Process}},
	}}
	sh := New(cfg)
	known := packet.Packet{Tuple: packet.FiveTuple{SrcIP: packet.PoPIP(1, 5), DstIP: packet.PoPIP(2, 5)}}
	unknown := packet.Packet{Tuple: packet.FiveTuple{SrcIP: packet.PoPIP(9, 5), DstIP: packet.PoPIP(8, 5)}}
	if d := decide(sh, known); d.Act != Process {
		t.Fatalf("known class should process, got %v", d.Act)
	}
	if d := decide(sh, unknown); d.Act != Skip {
		t.Fatalf("unknown class should skip, got %v", d.Act)
	}
	if sh.Counters.Seen != 2 || sh.Counters.Processed != 1 || sh.Counters.Skipped != 1 || sh.Counters.NoClass != 1 {
		t.Fatalf("counters = %+v", sh.Counters)
	}
	if sh.NodeID() != 0 {
		t.Fatal("NodeID")
	}
}

func TestKeyForPacketDirectionFlip(t *testing.T) {
	fwd := packet.Packet{
		Tuple: packet.FiveTuple{SrcIP: packet.PoPIP(3, 1), DstIP: packet.PoPIP(7, 1)},
		Dir:   packet.Forward,
	}
	rev := packet.Packet{
		Tuple: fwd.Tuple.Reverse(),
		Dir:   packet.Reverse,
	}
	if KeyForPacket(fwd) != KeyForPacket(rev) {
		t.Fatal("both directions must map to the initiator's class key")
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{Skip: "skip", Process: "process", Replicate: "replicate", Action(9): "action(9)"} {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", a, a.String())
		}
	}
}

func TestPacketFramingRoundTrip(t *testing.T) {
	f := func(proto uint8, sip, dip uint32, sp, dp uint16, dir bool, payload []byte) bool {
		p := packet.Packet{
			Tuple: packet.FiveTuple{Proto: proto, SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp},
			Dir:   packet.Forward,
		}
		if dir {
			p.Dir = packet.Reverse
		}
		p.Payload = payload
		var buf bytes.Buffer
		if err := WritePacket(&buf, p); err != nil {
			return false
		}
		got, err := ReadPacket(&buf)
		if err != nil {
			return false
		}
		return got.Tuple == p.Tuple && got.Dir == p.Dir && bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReadPacketRejectsHugeFrames(t *testing.T) {
	var buf bytes.Buffer
	var hdr [headerLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	buf.Write(hdr[:])
	if _, err := ReadPacket(&buf); err == nil {
		t.Fatal("want error for oversized frame")
	}
}

func TestTunnelEndToEnd(t *testing.T) {
	gen := packet.NewGenerator(packet.GeneratorConfig{}, 5)
	sess := gen.Session(0, 1)
	// The handler runs on the server's connection goroutine; it closes
	// done when the last packet arrives, so the wait below needs no
	// polling, and the close orders every append before the reads.
	var received []packet.Packet
	done := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(p packet.Packet) {
		received = append(received, p)
		if len(received) == len(sess.Packets) {
			close(done)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tun, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sess.Packets {
		if err := tun.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tun.Flush(); err != nil {
		t.Fatal(err)
	}
	if tun.Sent() != uint64(len(sess.Packets)) {
		t.Fatalf("Sent = %d", tun.Sent())
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("the %d packets sent did not all arrive within 10 s", len(sess.Packets))
	}
	for i, p := range received {
		if p.Tuple != sess.Packets[i].Tuple || !bytes.Equal(p.Payload, sess.Packets[i].Payload) {
			t.Fatalf("packet %d corrupted in transit", i)
		}
	}
	if err := tun.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkShimDecide(b *testing.B) {
	a := buildAssignment(b)
	cfgs := CompileConfigs(a, 42)
	sh := New(cfgs[a.Scenario.Classes[0].Path.Ingress()])
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2}, 1)
	cl := &a.Scenario.Classes[0]
	sess := gen.Session(cl.Src, cl.Dst)
	p := sess.Packets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.DecideFlow(p, HashTuple(p.Tuple, 42), 1)
	}
}

func BenchmarkHashTuple(b *testing.B) {
	tup := packet.FiveTuple{Proto: 6, SrcIP: 0x0a010203, DstIP: 0x0a040506, SrcPort: 4242, DstPort: 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashTuple(tup, 1)
	}
}

// TestShimMultiClassBlended: with several application classes per PoP pair,
// configs blend volume-weighted, and the ownership invariant must still
// hold for every session.
func TestShimMultiClassBlended(t *testing.T) {
	g := topology.Internet2()
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{
		ClassTemplates: core.DefaultClassTemplates(),
	})
	a, err := core.SolveReplication(s, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := CompileConfigs(a, 11)
	shims := map[int]*Shim{}
	for id, cfg := range cfgs {
		shims[id] = New(cfg)
	}
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2}, 31)
	for trial := 0; trial < 1000; trial++ {
		cl := &a.Scenario.Classes[trial%len(a.Scenario.Classes)]
		sess := gen.Session(cl.Src, cl.Dst)
		owners := ownersOf(t, shims, a.Scenario.Routing, sess, packet.Forward)
		if len(owners) != 1 {
			t.Fatalf("session %v has %d owners under blended multi-class config", sess.Tuple, len(owners))
		}
	}
	// Blended ranges per class key still tile [0,1): total process+replicate
	// fractions across all shims must equal 1 per key.
	perKey := map[ClassKey]float64{}
	for _, cfg := range cfgs {
		for key, rules := range cfg.Rules {
			for _, r := range rules {
				perKey[key] += r.Hi - r.Lo
			}
		}
	}
	for key, total := range perKey {
		if total < 1-1e-9 || total > 1+1e-9 {
			t.Fatalf("key %v covered %.6f of the hash space", key, total)
		}
	}
}
