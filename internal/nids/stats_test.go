package nids

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nwids/internal/packet"
)

// referenceStats is the executable spec Engine.Stats is pinned to: the
// table walk Stats itself used before the both-directions tally was kept
// incrementally. It survives only here.
func referenceStats(e *Engine) Stats {
	st := e.stats
	st.FlowsBothDirs, st.FlowsOneSided = 0, 0
	e.flows.each(func(_ packet.FiveTuple, fs flowState) {
		if fs.seenFwd && fs.seenRev {
			st.FlowsBothDirs++
		} else {
			st.FlowsOneSided++
		}
	})
	return st
}

// TestStatsMatchesTableWalk requires the O(1) Stats to equal the table walk
// after every single packet, over a stream built to hit each way the tally
// can go wrong: flows that only ever see one direction (either one), flows
// whose reverse packet arrives first, repeated packets in both directions
// after the flow is complete, a table that doubles several times mid-stream
// (rehashing must not disturb the tally), and epoch resets between rounds
// (the tally must restart with the table).
func TestStatsMatchesTableWalk(t *testing.T) {
	e := NewEngine(DefaultRules(), 100)
	rng := rand.New(rand.NewSource(5))
	check := func(when string) {
		t.Helper()
		got, want := e.Stats(), referenceStats(e)
		if got != want {
			t.Fatalf("%s: Stats() = %+v, table walk = %+v", when, got, want)
		}
		if got.FlowsBothDirs+got.FlowsOneSided != uint64(e.ActiveFlows()) {
			t.Fatalf("%s: both %d + one-sided %d != active flows %d",
				when, got.FlowsBothDirs, got.FlowsOneSided, e.ActiveFlows())
		}
	}
	payload := []byte("benign")
	const flowsPerRound = 2000 // > 256·2·2·2·¾: at least three doublings
	var bothSeen, oneSidedSeen uint64
	for round := 0; round < 3; round++ {
		startSize := len(e.flows.slots)
		for f := 0; f < flowsPerRound; f++ {
			fwd := packet.FiveTuple{
				Proto: packet.ProtoTCP, SrcIP: packet.PoPIP(f%7, uint16(f)), DstIP: packet.PoPIP(9, uint16(f>>3)),
				SrcPort: uint16(1024 + f), DstPort: 80,
			}
			if f%2 == 1 {
				// Half the initiators sit on the non-canonical side, so
				// "forward" and "canonical direction" are not the same thing.
				fwd = fwd.Reverse()
			}
			var dirs []packet.Direction
			switch f % 5 {
			case 0: // forward only, repeated
				dirs = []packet.Direction{packet.Forward, packet.Forward, packet.Forward}
			case 1: // reverse only, repeated
				dirs = []packet.Direction{packet.Reverse, packet.Reverse}
			case 2: // reverse first, then forward, then both again
				dirs = []packet.Direction{packet.Reverse, packet.Forward, packet.Reverse, packet.Forward}
			case 3: // the usual alternation
				dirs = []packet.Direction{packet.Forward, packet.Reverse, packet.Forward, packet.Reverse}
			case 4: // a single packet
				dirs = []packet.Direction{packet.Forward}
			}
			for _, dir := range dirs {
				tu := fwd
				if dir == packet.Reverse {
					tu = fwd.Reverse()
				}
				e.ProcessPacket(packet.Packet{Tuple: tu, Dir: dir, Payload: payload})
				check("after packet")
			}
			// Revisit an older flow so completions also happen long after
			// insertion, across grows, and off the last-slot memo.
			if f > 0 && f%3 == 0 {
				old := rng.Intn(f)
				tu := packet.FiveTuple{
					Proto: packet.ProtoTCP, SrcIP: packet.PoPIP(old%7, uint16(old)), DstIP: packet.PoPIP(9, uint16(old>>3)),
					SrcPort: uint16(1024 + old), DstPort: 80,
				}
				if rng.Intn(2) == 0 {
					tu = tu.Reverse()
				}
				e.ProcessPacket(packet.Packet{Tuple: tu, Dir: packet.Forward, Payload: payload})
				check("after revisit")
			}
		}
		st := e.Stats()
		bothSeen += st.FlowsBothDirs
		oneSidedSeen += st.FlowsOneSided
		if round == 0 && len(e.flows.slots) < 8*minSlots {
			t.Fatalf("table grew %d → %d slots; the stream must force several doublings", startSize, len(e.flows.slots))
		}
		e.ResetEpoch()
		check("after ResetEpoch")
		if st := e.Stats(); st.FlowsBothDirs != 0 || st.FlowsOneSided != 0 {
			t.Fatalf("after ResetEpoch: %d both-direction and %d one-sided flows, want 0 and 0",
				st.FlowsBothDirs, st.FlowsOneSided)
		}
	}
	if bothSeen == 0 || oneSidedSeen == 0 {
		t.Fatalf("stream exercised nothing: %d both-direction, %d one-sided flows", bothSeen, oneSidedSeen)
	}
}

// TestStatsAllocFree: the telemetry tick calls Stats on every engine, so it
// is part of the per-tick budget and must not allocate.
func TestStatsAllocFree(t *testing.T) {
	e := NewEngine(DefaultRules(), 100)
	for _, s := range benignWorkload(64) {
		e.ProcessSession(s)
	}
	var sink Stats
	if allocs := testing.AllocsPerRun(100, func() { sink = e.Stats() }); allocs != 0 {
		t.Errorf("Stats: %v allocs/run, want 0", allocs)
	}
	_ = sink
}

// TestSharedMatcherConcurrentEngines: two engines sharing one Matcher, each
// driven from its own goroutine, must raise exactly the alerts two engines
// with private automata raise on the same packets. Under -race this is the
// proof that scanning writes nothing to the shared automaton.
func TestSharedMatcherConcurrentEngines(t *testing.T) {
	rules := DefaultRules()
	var sigs [][]byte
	for _, r := range rules {
		if len(r.Pattern) >= 6 {
			sigs = append(sigs, r.Pattern)
		}
	}
	gen := packet.NewGenerator(packet.GeneratorConfig{MaliciousFraction: 0.3, Signatures: sigs}, 11)
	halves := [2][]packet.Session{}
	for i := 0; i < 400; i++ {
		halves[i%2] = append(halves[i%2], gen.Session(i%5, (i+2)%5))
	}

	private := [2]*Engine{NewEngine(rules, 20), NewEngine(rules, 20)}
	for k, e := range private {
		for _, s := range halves[k] {
			e.ProcessSession(s)
		}
	}

	m := NewMatcher(Patterns(rules))
	shared := [2]*Engine{NewEngineWithMatcher(rules, m, 20), NewEngineWithMatcher(rules, m, 20)}
	var wg sync.WaitGroup
	for k := range shared {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for _, s := range halves[k] {
				shared[k].ProcessSession(s)
			}
		}(k)
	}
	wg.Wait()

	for k := range shared {
		if len(private[k].Alerts()) == 0 {
			t.Fatalf("engine %d: private-matcher engine raised no alerts; the comparison is vacuous", k)
		}
		if !reflect.DeepEqual(shared[k].Alerts(), private[k].Alerts()) {
			t.Errorf("engine %d: shared-matcher alerts differ from private-matcher alerts (%d vs %d)",
				k, len(shared[k].Alerts()), len(private[k].Alerts()))
		}
		if shared[k].Stats() != private[k].Stats() {
			t.Errorf("engine %d: stats differ: shared %+v, private %+v", k, shared[k].Stats(), private[k].Stats())
		}
	}
}

// TestNewEngineWithMatcherRejectsForeignMatcher: match indices index the
// ruleset, so a matcher built from another pattern list is a wiring bug.
func TestNewEngineWithMatcherRejectsForeignMatcher(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a matcher with a different pattern count")
		}
	}()
	NewEngineWithMatcher(DefaultRules(), NewMatcher([][]byte{[]byte("x")}), 20)
}
