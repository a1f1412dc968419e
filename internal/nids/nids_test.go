package nids

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"nwids/internal/packet"
)

// naiveScan is the oracle for the Aho-Corasick property tests.
func naiveScan(patterns [][]byte, data []byte) []Match {
	var out []Match
	for i := 0; i+1 <= len(data); i++ {
		for pi, p := range patterns {
			if i+len(p) <= len(data) && bytes.Equal(data[i:i+len(p)], p) {
				out = append(out, Match{Pattern: pi, End: i + len(p)})
			}
		}
	}
	return out
}

func matchSet(ms []Match) map[Match]int {
	set := map[Match]int{}
	for _, m := range ms {
		set[m]++
	}
	return set
}

func TestMatcherBasic(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")})
	got := m.Scan([]byte("ushers"))
	// Classic example: "she" at 4, "he" at 4, "hers" at 6.
	want := []Match{{Pattern: 1, End: 4}, {Pattern: 0, End: 4}, {Pattern: 3, End: 6}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	gs, ws := matchSet(got), matchSet(want)
	for k, v := range ws {
		if gs[k] != v {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMatcherOverlapping(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("aa")})
	got := m.Scan([]byte("aaaa"))
	if len(got) != 3 {
		t.Fatalf("overlapping matches = %d, want 3", len(got))
	}
}

func TestMatcherDuplicatePatterns(t *testing.T) {
	m := NewMatcher([][]byte{[]byte("x"), []byte("x")})
	got := m.Scan([]byte("x"))
	if len(got) != 2 {
		t.Fatalf("duplicate patterns should both match, got %d", len(got))
	}
}

func TestMatcherEmptyPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on empty pattern")
		}
	}()
	NewMatcher([][]byte{{}})
}

// TestMatcherAgainstNaive is the property test: the automaton must agree
// with brute force on random patterns over a small alphabet (maximizing
// overlap stress).
func TestMatcherAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		np := 1 + rng.Intn(6)
		patterns := make([][]byte, np)
		for i := range patterns {
			l := 1 + rng.Intn(4)
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			patterns[i] = p
		}
		data := make([]byte, rng.Intn(60))
		for i := range data {
			data[i] = byte('a' + rng.Intn(3))
		}
		m := NewMatcher(patterns)
		got := matchSet(m.Scan(data))
		want := matchSet(naiveScan(patterns, data))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %v vs %v (patterns %q data %q)", trial, got, want, patterns, data)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("trial %d: missing %v (patterns %q data %q)", trial, k, patterns, data)
			}
		}
	}
}

func TestScanStreamEquivalentToWhole(t *testing.T) {
	patterns := [][]byte{[]byte("abc"), []byte("cab")}
	m := NewMatcher(patterns)
	data := []byte("xcabcabcx")
	whole := len(m.Scan(data))
	// Split at every possible point; totals must be identical because the
	// automaton state carries across the split.
	for cut := 0; cut <= len(data); cut++ {
		st, head := m.ScanStreamInto(0, data[:cut], nil)
		_, both := m.ScanStreamInto(st, data[cut:], head)
		if len(both) != whole {
			t.Fatalf("cut %d: %d+%d ≠ %d", cut, len(head), len(both)-len(head), whole)
		}
	}
}

func TestDefaultRules(t *testing.T) {
	rules := DefaultRules()
	if len(rules) < 40 {
		t.Fatalf("ruleset too small: %d", len(rules))
	}
	seen := map[int]bool{}
	for _, r := range rules {
		if len(r.Pattern) == 0 {
			t.Fatalf("rule %s has empty pattern", r.Name)
		}
		if r.Severity < 1 || r.Severity > 3 {
			t.Fatalf("rule %s severity %d", r.Name, r.Severity)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate rule ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	// The matcher must build cleanly over the whole set.
	m := NewMatcher(Patterns(rules))
	if m.NumPatterns() != len(rules) {
		t.Fatal("pattern count mismatch")
	}
}

func TestScanDetector(t *testing.T) {
	d := NewScanDetector(2)
	d.Observe(1, 10)
	d.Observe(1, 11)
	d.Observe(1, 11) // duplicate: counts once
	d.Observe(2, 10)
	if got := d.Count(1); got != 2 {
		t.Fatalf("Count(1) = %d", got)
	}
	if rep := d.Report(); len(rep) != 0 {
		t.Fatalf("no source exceeds k=2 yet: %v", rep)
	}
	d.Observe(1, 12)
	rep := d.Report()
	if len(rep) != 1 || rep[0].Src != 1 || rep[0].Count != 3 {
		t.Fatalf("Report = %v", rep)
	}
	if d.NumSources() != 2 {
		t.Fatalf("NumSources = %d", d.NumSources())
	}
	tuples := d.Tuples()
	if len(tuples) != 4 {
		t.Fatalf("Tuples = %v", tuples)
	}
	d.Reset()
	if d.NumSources() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestScanDetectorZeroThresholdReportsAll(t *testing.T) {
	// k=0 per-node configuration under aggregation (§7.3).
	d := NewScanDetector(0)
	d.Observe(5, 50)
	rep := d.Report()
	if len(rep) != 1 || rep[0].Count != 1 {
		t.Fatalf("k=0 should report every source: %v", rep)
	}
}

func TestEngineDetectsPlantedSignatures(t *testing.T) {
	rules := DefaultRules()
	sigs := [][]byte{rules[0].Pattern, rules[5].Pattern}
	gen := packet.NewGenerator(packet.GeneratorConfig{
		Signatures: sigs, MaliciousFraction: 1.0,
	}, 21)
	e := NewEngine(rules, 100)
	planted := 0
	for i := 0; i < 20; i++ {
		s := gen.Session(0, 1)
		if s.Malicious {
			planted++
		}
		e.ProcessSession(s)
	}
	if planted != 20 {
		t.Fatalf("planted = %d", planted)
	}
	if len(e.Alerts()) < planted {
		t.Fatalf("alerts = %d, want ≥ %d (every planted signature must fire)", len(e.Alerts()), planted)
	}
	st := e.Stats()
	if st.Packets != 20*6 {
		t.Fatalf("packets = %d", st.Packets)
	}
	if st.WorkUnits() != st.BytesScanned+PacketOverhead*st.Packets {
		t.Fatal("work units formula")
	}
}

// TestEngineBenignTrafficIsQuiet: benign filler raises no alert on the
// default ruleset. The 1400 B case scans 2000 sessions × 6 × 1400 B ≈ 17 MB,
// where the expected count of accidental matches, mostly ".onion"
// (TestFillAccidentalMatchRate), is ≈ 0.003.
func TestEngineBenignTrafficIsQuiet(t *testing.T) {
	rules := DefaultRules()
	for _, tc := range []struct {
		sessions, payload int
		seed              int64
	}{{50, 256, 22}, {2000, 1400, 23}} {
		gen := packet.NewGenerator(packet.GeneratorConfig{PayloadBytes: tc.payload, MaliciousFraction: -1}, tc.seed)
		e := NewEngine(rules, 100)
		for i := 0; i < tc.sessions; i++ {
			e.ProcessSession(gen.Session(2, 3))
		}
		for _, a := range e.Alerts() {
			t.Fatalf("%d sessions of %d B: false positive: %+v", tc.sessions, tc.payload, a)
		}
	}
}

func TestEngineStatefulFlowTracking(t *testing.T) {
	rules := DefaultRules()
	e := NewEngine(rules, 100)
	gen := packet.NewGenerator(packet.GeneratorConfig{}, 23)
	s := gen.Session(0, 1)
	// Feed only forward packets: the flow must be one-sided.
	for _, p := range s.Packets {
		if p.Dir == packet.Forward {
			e.ProcessPacket(p)
		}
	}
	st := e.Stats()
	if st.FlowsOneSided != 1 || st.FlowsBothDirs != 0 {
		t.Fatalf("one-sided tracking: %+v", st)
	}
	// Now feed the reverse packets; the same flow completes.
	for _, p := range s.Packets {
		if p.Dir == packet.Reverse {
			e.ProcessPacket(p)
		}
	}
	st = e.Stats()
	if st.FlowsOneSided != 0 || st.FlowsBothDirs != 1 {
		t.Fatalf("flow should be complete: %+v", st)
	}
	if e.ActiveFlows() != 1 {
		t.Fatalf("ActiveFlows = %d", e.ActiveFlows())
	}
	e.ResetEpoch()
	if e.ActiveFlows() != 0 || len(e.Alerts()) != 0 {
		t.Fatal("ResetEpoch incomplete")
	}
}

func TestEngineCrossPacketSignature(t *testing.T) {
	// A signature split across two packets of the same direction must still
	// match thanks to streaming automaton state.
	rules := []Rule{{ID: 1, Name: "split", Pattern: []byte("SPLITSIG"), Severity: 2}}
	e := NewEngine(rules, 100)
	tuple := packet.FiveTuple{Proto: 6, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	e.ProcessPacket(packet.Packet{Tuple: tuple, Dir: packet.Forward, Payload: []byte("xxSPLI")})
	e.ProcessPacket(packet.Packet{Tuple: tuple, Dir: packet.Forward, Payload: []byte("TSIGyy")})
	if len(e.Alerts()) != 1 {
		t.Fatalf("cross-packet signature not detected: %d alerts", len(e.Alerts()))
	}
	// But not across opposite directions.
	e2 := NewEngine(rules, 100)
	e2.ProcessPacket(packet.Packet{Tuple: tuple, Dir: packet.Forward, Payload: []byte("xxSPLI")})
	e2.ProcessPacket(packet.Packet{Tuple: tuple.Reverse(), Dir: packet.Reverse, Payload: []byte("TSIGyy")})
	if len(e2.Alerts()) != 0 {
		t.Fatal("directions must have independent automaton state")
	}
}

func TestEngineScanIntegration(t *testing.T) {
	rules := DefaultRules()
	e := NewEngine(rules, 10)
	gen := packet.NewGenerator(packet.GeneratorConfig{}, 24)
	for _, s := range gen.ScanSessions(0, []int{1, 2, 3}, 25) {
		e.ProcessSession(s)
	}
	rep := e.ScanDetector().Report()
	if len(rep) != 1 || rep[0].Count != 25 {
		t.Fatalf("scan report = %v", rep)
	}
}

// Property: canonical flow keying means packet arrival order never changes
// the final flow-table shape.
func TestEngineFlowKeyOrderIndependence(t *testing.T) {
	rules := []Rule{{ID: 1, Name: "x", Pattern: []byte("ZZZ"), Severity: 1}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 4}, seed)
		s := gen.Session(0, 1)
		perm := rng.Perm(len(s.Packets))
		a := NewEngine(rules, 10)
		b := NewEngine(rules, 10)
		for _, p := range s.Packets {
			a.ProcessPacket(p)
		}
		for _, i := range perm {
			b.ProcessPacket(s.Packets[i])
		}
		return a.ActiveFlows() == b.ActiveFlows() && a.Stats().FlowsBothDirs == b.Stats().FlowsBothDirs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestItoa(t *testing.T) {
	for v, want := range map[int]string{0: "0", 7: "7", -3: "-3", 1234: "1234"} {
		if got := itoa(v); got != want {
			t.Fatalf("itoa(%d) = %q", v, got)
		}
	}
}

func BenchmarkMatcherScan(b *testing.B) {
	m := NewMatcher(Patterns(DefaultRules()))
	gen := packet.NewGenerator(packet.GeneratorConfig{PayloadBytes: 1500}, 1)
	s := gen.Session(0, 1)
	payload := s.Packets[0].Payload
	b.SetBytes(int64(len(payload)))
	var buf []Match
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, buf = m.ScanStreamInto(0, payload, buf[:0])
	}
}

func TestRuleHeaderMatching(t *testing.T) {
	anyRule := Rule{}
	if !anyRule.MatchesHeader(6, 1234, 80) {
		t.Fatal("wildcard rule must match anything")
	}
	web := Rule{Proto: 6, DstPort: 80}
	if !web.MatchesHeader(6, 1234, 80) {
		t.Fatal("should match TCP to port 80")
	}
	if !web.MatchesHeader(6, 80, 1234) {
		t.Fatal("should match the reverse direction (port 80 as source)")
	}
	if web.MatchesHeader(17, 1234, 80) {
		t.Fatal("should not match UDP")
	}
	if web.MatchesHeader(6, 1234, 22) {
		t.Fatal("should not match port 22")
	}
}

func TestEngineHonorsRuleHeaders(t *testing.T) {
	rules := []Rule{
		{ID: 1, Name: "web-only", Pattern: []byte("ATTACK"), Severity: 2, Proto: packet.ProtoTCP, DstPort: 80},
	}
	payload := []byte("xxATTACKxx")
	mk := func(dstPort uint16) packet.Packet {
		return packet.Packet{
			Tuple:   packet.FiveTuple{Proto: packet.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 9999, DstPort: dstPort},
			Dir:     packet.Forward,
			Payload: payload,
		}
	}
	e := NewEngine(rules, 100)
	e.ProcessPacket(mk(80))
	if len(e.Alerts()) != 1 {
		t.Fatalf("port-80 attack should alert: %d", len(e.Alerts()))
	}
	e2 := NewEngine(rules, 100)
	e2.ProcessPacket(mk(22))
	if len(e2.Alerts()) != 0 {
		t.Fatalf("port-22 traffic must not trigger the web-only rule: %d", len(e2.Alerts()))
	}
}
