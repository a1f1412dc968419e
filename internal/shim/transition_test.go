package shim

import (
	"testing"

	"nwids/internal/core"
	"nwids/internal/nids"
	"nwids/internal/packet"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// buildTwoAssignments solves two different configurations over the same
// scenario, modeling a controller reconfiguration.
func buildTwoAssignments(t testing.TB) (*core.Assignment, *core.Assignment) {
	t.Helper()
	g := topology.Internet2()
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	before, err := core.SolveReplication(s, core.ReplicationConfig{Mirror: core.MirrorNone})
	if err != nil {
		t.Fatal(err)
	}
	after, err := core.SolveReplication(s, core.ReplicationConfig{
		Mirror: core.MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return before, after
}

// TestTransitionNeverDropsOwnership is the §9 consistency property: during
// a reconfiguration, with every node honoring the union of the old and new
// configurations, every session still has at least one owner — regardless
// of which configuration each individual node "believes" is current.
func TestTransitionNeverDropsOwnership(t *testing.T) {
	before, after := buildTwoAssignments(t)
	const seed = 5
	cfgBefore := CompileConfigs(before, seed)
	cfgAfter := CompileConfigs(after, seed)

	// Merged shims per node (the DC exists only in the after-config).
	merged := map[int]*Shim{}
	for id, cb := range cfgBefore {
		if ca, ok := cfgAfter[id]; ok {
			m, err := MergeConfigs(cb, ca)
			if err != nil {
				t.Fatal(err)
			}
			merged[id] = New(m)
		} else {
			merged[id] = New(cb)
		}
	}
	for id, ca := range cfgAfter {
		if _, ok := merged[id]; !ok {
			merged[id] = New(ca)
		}
	}

	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2}, 13)
	sc := after.Scenario
	for trial := 0; trial < 1500; trial++ {
		cl := &sc.Classes[trial%len(sc.Classes)]
		sess := gen.Session(cl.Src, cl.Dst)
		p := sess.Packets[0]
		path := sc.Routing.Path(sess.SrcPoP, sess.DstPoP)
		owners := map[int]bool{}
		for _, node := range path.Nodes {
			for _, d := range merged[node].DecideAllInto(p, nil) {
				switch d.Act {
				case Process:
					owners[node] = true
				case Replicate:
					owners[d.Mirror] = true
				}
			}
		}
		if len(owners) == 0 {
			t.Fatalf("session %v unowned during transition", sess.Tuple)
		}
		// The union can legitimately have up to two owners (old + new).
		if len(owners) > 2 {
			t.Fatalf("session %v has %d owners; transition should duplicate at most once", sess.Tuple, len(owners))
		}
	}
}

// TestMergeConfigsErrors pins the online-controller contract: a stale or
// misaddressed epoch push surfaces as a rejected transition (error), never
// a crashed shim.
func TestMergeConfigsErrors(t *testing.T) {
	a := &Config{NodeID: 1, Seed: 1, Rules: map[ClassKey][]RangeRule{}}
	b := &Config{NodeID: 2, Seed: 1, Rules: map[ClassKey][]RangeRule{}}
	c := &Config{NodeID: 1, Seed: 2, Rules: map[ClassKey][]RangeRule{}}
	for _, pair := range [][2]*Config{{a, b}, {a, c}, {a, nil}, {nil, a}} {
		if _, err := MergeConfigs(pair[0], pair[1]); err == nil {
			t.Fatalf("MergeConfigs(%v, %v): want error", pair[0], pair[1])
		}
	}
	if m, err := MergeConfigs(a, a); err != nil || m == nil {
		t.Fatalf("MergeConfigs(a, a) = %v, %v; want merged config", m, err)
	}
}

func TestMergeConfigsDedupsIdenticalRules(t *testing.T) {
	key := ClassKey{SrcPoP: 1, DstPoP: 2}
	rule := RangeRule{Lo: 0, Hi: 1, Act: Process}
	a := &Config{NodeID: 0, Seed: 1, Rules: map[ClassKey][]RangeRule{key: {rule}}}
	b := &Config{NodeID: 0, Seed: 1, Rules: map[ClassKey][]RangeRule{key: {rule}}}
	m, err := MergeConfigs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rules[key]) != 1 {
		t.Fatalf("identical rules must merge: %v", m.Rules[key])
	}
}

// TestDecideAllCountersMatchDecisions is the counter-inflation regression
// test: under a merged transition configuration where both the old and the
// new owner ranges match a packet, Processed + Replicated must equal the
// total number of emitted decisions — not the number of matching rules —
// and the Seen + Dual = Processed + Replicated + Skipped identity must hold.
func TestDecideAllCountersMatchDecisions(t *testing.T) {
	before, after := buildTwoAssignments(t)
	const seed = 5
	cfgBefore := CompileConfigs(before, seed)
	cfgAfter := CompileConfigs(after, seed)
	merged := map[int]*Shim{}
	for id, cb := range cfgBefore {
		if ca, ok := cfgAfter[id]; ok {
			m, err := MergeConfigs(cb, ca)
			if err != nil {
				t.Fatal(err)
			}
			merged[id] = New(m)
		} else {
			merged[id] = New(cb)
		}
	}

	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2}, 23)
	sc := after.Scenario
	var wantProcessed, wantReplicated, decisions uint64
	for trial := 0; trial < 2000; trial++ {
		cl := &sc.Classes[trial%len(sc.Classes)]
		sess := gen.Session(cl.Src, cl.Dst)
		p := sess.Packets[0]
		for _, node := range cl.Path.Nodes {
			out := merged[node].DecideAllInto(p, nil)
			decisions += uint64(len(out))
			for _, d := range out {
				switch d.Act {
				case Process:
					wantProcessed++
				case Replicate:
					wantReplicated++
				}
			}
		}
	}
	var tot Counters
	for _, sh := range merged {
		if !sh.Counters.Reconciled() {
			t.Fatalf("node %d counters do not reconcile: %+v", sh.NodeID(), sh.Counters)
		}
		tot = tot.Add(sh.Counters)
	}
	if tot.Processed != wantProcessed || tot.Replicated != wantReplicated {
		t.Fatalf("counters inflated: Processed=%d want %d, Replicated=%d want %d",
			tot.Processed, wantProcessed, tot.Replicated, wantReplicated)
	}
	if tot.Processed+tot.Replicated != decisions {
		t.Fatalf("Processed+Replicated = %d, want len(out) sum %d", tot.Processed+tot.Replicated, decisions)
	}
	if tot.Dual == 0 {
		t.Fatal("merged transition configs never emitted a dual decision; test is vacuous")
	}
	if !tot.Reconciled() {
		t.Fatalf("fleet counters do not reconcile: %+v", tot)
	}
}

// TestTransitionInterleavings is the §9 rollout safety property: across
// every interleaving of the per-node epoch rollout — during phase one each
// node runs prev or merged, during phase two merged or next — every session
// always has at least one owner, and the owner set stays within {old owner,
// new owner}, so detection output matches the single-config oracle (some
// owning engine sees every packet of the session).
func TestTransitionInterleavings(t *testing.T) {
	before, after := buildTwoAssignments(t)
	const seed = 7
	cfgBefore := CompileConfigs(before, seed)
	cfgAfter := CompileConfigs(after, seed)
	mergedCfg := map[int]*Config{}
	for id, cb := range cfgBefore {
		if ca, ok := cfgAfter[id]; ok {
			m, err := MergeConfigs(cb, ca)
			if err != nil {
				t.Fatal(err)
			}
			mergedCfg[id] = m
		} else {
			mergedCfg[id] = cb
		}
	}
	for id, ca := range cfgAfter {
		if _, ok := mergedCfg[id]; !ok {
			mergedCfg[id] = ca
		}
	}

	ownersUnder := func(cfgs map[int]*Config, path []int, p packet.Packet) map[int]bool {
		owners := map[int]bool{}
		for _, node := range path {
			cfg, ok := cfgs[node]
			if !ok {
				continue
			}
			for _, d := range New(cfg).DecideAllInto(p, nil) {
				switch d.Act {
				case Process:
					owners[node] = true
				case Replicate:
					owners[d.Mirror] = true
				}
			}
		}
		return owners
	}

	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2}, 31)
	sc := after.Scenario
	for ci := range sc.Classes {
		cl := &sc.Classes[ci]
		sess := gen.Session(cl.Src, cl.Dst)
		p := sess.Packets[0]
		path := cl.Path.Nodes

		oldOwners := ownersUnder(cfgBefore, path, p)
		newOwners := ownersUnder(cfgAfter, path, p)
		if len(oldOwners) != 1 || len(newOwners) != 1 {
			t.Fatalf("class %d: single-config oracle has %d/%d owners", ci, len(oldOwners), len(newOwners))
		}

		// Phase one: nodes move prev → merged; phase two: merged → next.
		phases := [2][2]map[int]*Config{
			{cfgBefore, mergedCfg},
			{mergedCfg, cfgAfter},
		}
		for pi, phase := range phases {
			for mask := 0; mask < 1<<len(path); mask++ {
				cfgs := map[int]*Config{}
				for bi, node := range path {
					if mask&(1<<bi) != 0 {
						cfgs[node] = phase[1][node]
					} else {
						cfgs[node] = phase[0][node]
					}
				}
				owners := ownersUnder(cfgs, path, p)
				if len(owners) == 0 {
					t.Fatalf("class %d phase %d mask %b: session unowned", ci, pi+1, mask)
				}
				for o := range owners {
					if !oldOwners[o] && !newOwners[o] {
						t.Fatalf("class %d phase %d mask %b: unexpected owner %d (old %v new %v)",
							ci, pi+1, mask, o, oldOwners, newOwners)
					}
				}
			}
		}
	}
}

// TestTransitionInterleavingDetectionParity drives real engines through a
// sampled set of rollout interleavings and checks a planted signature is
// detected in every one — the detection analog of the ownership property.
func TestTransitionInterleavingDetectionParity(t *testing.T) {
	before, after := buildTwoAssignments(t)
	const seed = 11
	cfgBefore := CompileConfigs(before, seed)
	cfgAfter := CompileConfigs(after, seed)
	mergedCfg := map[int]*Config{}
	for id, cb := range cfgBefore {
		ca, ok := cfgAfter[id]
		if !ok {
			mergedCfg[id] = cb
			continue
		}
		m, err := MergeConfigs(cb, ca)
		if err != nil {
			t.Fatal(err)
		}
		mergedCfg[id] = m
	}
	for id, ca := range cfgAfter {
		if _, ok := mergedCfg[id]; !ok {
			mergedCfg[id] = ca
		}
	}

	rules := nids.DefaultRules()
	sig := sigOf(t, rules)
	gen := packet.NewGenerator(packet.GeneratorConfig{
		PacketsPerSession: 3, MaliciousFraction: 1, Signatures: [][]byte{sig},
	}, 41)
	sc := after.Scenario
	nNIDS := after.NumNIDS()
	for ci := 0; ci < len(sc.Classes) && ci < 4; ci++ {
		cl := &sc.Classes[ci]
		sess := gen.Session(cl.Src, cl.Dst)
		path := cl.Path.Nodes

		// Oracle: one centralized engine sees every packet.
		oracle := nids.NewEngine(rules, 20)
		for _, p := range sess.Packets {
			oracle.ProcessPacket(p)
		}
		if len(oracle.Alerts()) == 0 {
			t.Fatalf("class %d: oracle missed the planted signature", ci)
		}

		phases := [2][2]map[int]*Config{
			{cfgBefore, mergedCfg},
			{mergedCfg, cfgAfter},
		}
		for pi, phase := range phases {
			for mask := 0; mask < 1<<len(path); mask++ {
				engines := make([]*nids.Engine, nNIDS)
				for j := range engines {
					engines[j] = nids.NewEngine(rules, 20)
				}
				shims := map[int]*Shim{}
				for bi, node := range path {
					cfg := phase[0][node]
					if mask&(1<<bi) != 0 {
						cfg = phase[1][node]
					}
					shims[node] = New(cfg)
				}
				for _, p := range sess.Packets {
					// Reverse-direction packets traverse the same node set;
					// decisions are order-independent, so iterate the
					// forward path for both directions.
					for _, node := range path {
						sh := shims[node]
						for _, d := range sh.DecideAllInto(p, nil) {
							switch d.Act {
							case Process:
								engines[node].ProcessPacket(p)
							case Replicate:
								engines[d.Mirror].ProcessPacket(p)
							}
						}
					}
				}
				alerts := 0
				for _, e := range engines {
					alerts += len(e.Alerts())
				}
				if alerts == 0 {
					t.Fatalf("class %d phase %d mask %b: planted signature not detected", ci, pi+1, mask)
				}
			}
		}
	}
}

// sigOf picks a signature pattern long enough for the generator to plant.
func sigOf(t *testing.T, rules []nids.Rule) []byte {
	t.Helper()
	for _, r := range rules {
		if len(r.Pattern) >= 6 {
			return r.Pattern
		}
	}
	t.Fatal("no plantable signature in default rules")
	return nil
}
