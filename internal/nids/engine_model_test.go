package nids

import (
	"slices"
	"sort"
	"testing"

	"nwids/internal/packet"
)

// mapModel is the seed engine, kept as the executable spec Engine is
// checked against: a Go map from canonical tuple to the two directions'
// automaton states, the reference automaton, the rules' header filter, and
// a map from source to destination set for the scan detector.
type mapModel struct {
	rules    []Rule
	ref      *referenceMatcher
	flows    map[packet.FiveTuple]*[2]int32 // {forward, reverse} state
	dests    map[uint32]map[uint32]bool
	alerts   []Alert
	filtered int // matches the header filter dropped, over the model's life
}

func newMapModel(rules []Rule) *mapModel {
	m := &mapModel{rules: rules, ref: newReferenceMatcher(Patterns(rules))}
	m.reset()
	return m
}

func (m *mapModel) reset() {
	m.flows = make(map[packet.FiveTuple]*[2]int32)
	m.dests = make(map[uint32]map[uint32]bool)
	m.alerts = nil
}

func (m *mapModel) process(p packet.Packet) {
	key := p.Tuple.Canonical()
	st := m.flows[key]
	if st == nil {
		st = new([2]int32)
		m.flows[key] = st
	}
	dir := 0
	if p.Tuple != key {
		dir = 1
	}
	var matched []Match
	st[dir], matched = m.ref.referenceScan(st[dir], p.Payload, nil)
	for _, mt := range matched {
		r := m.rules[mt.Pattern]
		if !r.MatchesHeader(p.Tuple.Proto, p.Tuple.SrcPort, p.Tuple.DstPort) {
			m.filtered++
			continue
		}
		m.alerts = append(m.alerts, Alert{RuleID: r.ID, Name: r.Name, Severity: r.Severity, Tuple: p.Tuple})
	}
	if p.Dir == packet.Forward {
		d := m.dests[p.Tuple.SrcIP]
		if d == nil {
			d = make(map[uint32]bool)
			m.dests[p.Tuple.SrcIP] = d
		}
		d[p.Tuple.DstIP] = true
	}
}

// report is ScanDetector.Report over the model's destination sets.
func (m *mapModel) report(k int) []SourceCount {
	var out []SourceCount
	for src, d := range m.dests {
		if len(d) > k {
			out = append(out, SourceCount{Src: src, Count: len(d)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// modelPacketsPerSession is the session length of modelWorkload.
const modelPacketsPerSession = 4

// modelWorkload returns a multi-PoP trace for rules: 2160 sessions, a
// quarter of them carrying a planted signature, half with 64 B payloads and
// half with 1400 B ones. Every fourth session is moved onto one of a few
// hosts per PoP and onto one of several (port, protocol) pairs, so a
// (src, dst) host pair recurs on distinct flows and the rules' header
// filters both admit and drop. Sessions are merged in groups of one, two
// and three, packet by packet, so a flow's packets sometimes arrive back to
// back and sometimes between another flow's.
func modelWorkload(rules []Rule) []packet.Packet {
	const pops = 6
	counts := make([][]int, pops)
	for i := range counts {
		counts[i] = make([]int, pops)
		for j := range counts[i] {
			if i != j {
				counts[i][j] = 36
			}
		}
	}
	var sessions []packet.Session
	for k, size := range []int{64, 1400} {
		gen := packet.NewGenerator(packet.GeneratorConfig{
			PacketsPerSession: modelPacketsPerSession,
			PayloadBytes:      size,
			MaliciousFraction: 0.25,
			Signatures:        Patterns(rules),
		}, int64(11+k))
		sessions = append(sessions, gen.Matrix(counts)...)
	}
	ports := []uint16{80, 6667, 21}
	for i := range sessions {
		if i%4 != 0 {
			continue
		}
		s := &sessions[i]
		tu := s.Tuple
		// Matrix repeats its PoP pairs every 30 sessions, so the host
		// numbers step per sweep (i/60) rather than per session.
		tu.SrcIP = packet.PoPIP(s.SrcPoP, uint16(1+i/4%2))
		tu.DstIP = packet.PoPIP(s.DstPoP, uint16(1+i/60%4))
		tu.DstPort = ports[i/8%len(ports)]
		if i%12 == 0 {
			tu.Proto = packet.ProtoUDP
		}
		s.Tuple = tu
		for j := range s.Packets {
			s.Packets[j].Tuple = tu
			if s.Packets[j].Dir == packet.Reverse {
				s.Packets[j].Tuple = tu.Reverse()
			}
		}
	}
	var pkts []packet.Packet
	for i, w := 0, 1; i < len(sessions); i, w = i+w, w%3+1 {
		group := sessions[i:min(i+w, len(sessions))]
		for k := 0; k < modelPacketsPerSession; k++ {
			for _, s := range group {
				pkts = append(pkts, s.Packets[k])
			}
		}
	}
	return pkts
}

// checkEngineAgainstModel demands that e and m agree on every alert, in
// order, on the flow count, and on the scan detector's per-source counts,
// sources and report.
func checkEngineAgainstModel(t *testing.T, when string, e *Engine, m *mapModel) {
	t.Helper()
	got, want := e.Alerts(), m.alerts
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: alert %d: engine %+v, model %+v", when, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: engine raised %d alerts, model %d", when, len(got), len(want))
	}
	if got, want := e.ActiveFlows(), len(m.flows); got != want {
		t.Fatalf("%s: engine has %d active flows, model %d", when, got, want)
	}
	det := e.ScanDetector()
	for src, d := range m.dests {
		if got, want := det.Count(src), len(d); got != want {
			t.Fatalf("%s: source %#x: engine counts %d destinations, model %d", when, src, got, want)
		}
	}
	if got, want := det.NumSources(), len(m.dests); got != want {
		t.Fatalf("%s: engine has %d scan sources, model %d", when, got, want)
	}
	if got, want := det.Report(), m.report(det.K); !slices.Equal(got, want) {
		t.Fatalf("%s: scan report\nengine %v\nmodel  %v", when, got, want)
	}
}

// TestEngineMatchesMapModel replays modelWorkload through an Engine and
// through mapModel, with one epoch reset halfway, and demands identical
// alerts, flow counts and scan state before the reset and at the end.
func TestEngineMatchesMapModel(t *testing.T) {
	const scanK = 3
	rules := DefaultRules()
	for i := range rules {
		switch i % 4 {
		case 1:
			rules[i].DstPort = 80
		case 2:
			rules[i].DstPort = 6667
		case 3:
			rules[i].Proto = packet.ProtoTCP
		}
	}
	pkts := modelWorkload(rules)
	e, m := NewEngine(rules, scanK), newMapModel(rules)
	if lm := e.matcher.laneMin(); lm <= 64 || lm > 1400 {
		t.Fatalf("lane threshold %d does not split the workload's 64 B and 1400 B payloads", lm)
	}

	var alerts, repeatedPairs int
	check := func(when string) {
		t.Helper()
		checkEngineAgainstModel(t, when, e, m)
		alerts += len(m.alerts)
		pairFlows := make(map[[2]uint32]int)
		for key := range m.flows {
			pairFlows[[2]uint32{key.SrcIP, key.DstIP}]++
		}
		for _, n := range pairFlows {
			if n > 1 {
				repeatedPairs++
			}
		}
	}
	half := len(pkts) / 2
	for i, p := range pkts {
		if i == half {
			check("before the reset")
			e.ResetEpoch()
			m.reset()
		}
		e.ProcessPacket(p)
		m.process(p)
	}
	check("at the end")

	// The workload must exercise what the test is for.
	if alerts == 0 || m.filtered == 0 {
		t.Fatalf("workload raised %d alerts and filtered %d matches; want both > 0", alerts, m.filtered)
	}
	if repeatedPairs == 0 {
		t.Fatal("no (src, dst) pair recurs on distinct flows")
	}
	if len(m.report(scanK)) == 0 {
		t.Fatal("scan report is empty")
	}
}
