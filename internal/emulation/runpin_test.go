package emulation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"nwids/internal/controller"
	"nwids/internal/core"
	"nwids/internal/obs"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// Byte-identity pins for the two shipped drivers. The constants below were
// last re-recorded when the generator's filler went to eight bytes per
// stream value, which moved every payload byte and every later tuple. The
// recordings before that one held, unchanged, through the rewrites of the
// drivers' bookkeeping (per-session clock advances, one shared matcher,
// streamed traces), so those rewrites were checked against the old code's
// output rather than against the new code's own. A deliberate change to
// anything a run exports re-records them; the failure message prints the
// new values.

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runPin is the recorded fingerprint of one emulation.Run configuration.
type runPin struct {
	result, timeline, trace string
}

var runPins = map[int64]runPin{
	1: {result: "87077cc632267b91", timeline: "e77b6005c7064805", trace: "0361b76c3853cb9b"},
	4: {result: "f36b6ffa64331421", timeline: "c324eddc8e3aa377", trace: "0361b76c3853cb9b"},
}

const (
	driftPin         = "ced18c1b881a3c8a"
	driftPinMirrorDC = "90927260e848c65d"
)

// TestRunPinned runs Internet2 with mirror-DC replication, 600 sessions of
// 6 × 64 B, with registry and tracer attached. TraceSessions is 8 of the
// 600 sessions, so both clock paths run: per-packet advances under spans in
// the traced prefix, one coalesced advance per session after it.
func TestRunPinned(t *testing.T) {
	_, rep := internet2Assignments(t)
	for _, seed := range []int64{1, 4} {
		vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
		reg := obs.NewRegistryWithClock(vc)
		tr := obs.NewTracer(vc)
		res, err := Run(Config{
			Assignment: rep, TotalSessions: 600, PacketsPerSession: 6, PayloadBytes: 64,
			GenSeed: seed, HashSeed: uint32(seed),
			Obs: reg, Clock: vc, Trace: tr, TraceSessions: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		timeline, err := json.Marshal(reg.Snapshot(nil).Timeline)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := tr.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		got := runPin{
			result:   fnvHex([]byte(fmt.Sprintf("%+v", *res))),
			timeline: fnvHex(timeline),
			trace:    fnvHex(trace.Bytes()),
		}
		if got != runPins[seed] {
			t.Errorf("seed %d: run output moved:\n got %+v\nwant %+v", seed, got, runPins[seed])
		}
	}
}

// driftFingerprint hashes everything a drift run reports that depends on
// the virtual clock, the per-session hash fractions or the dispatch order:
// the event timeline, every reconfiguration's empirical and expected churn,
// and the fleet counter sum.
func driftFingerprint(res *DriftResult) string {
	var b bytes.Buffer
	for _, ev := range res.Timeline {
		fmt.Fprintf(&b, "%d %s %s\n", ev.T.UnixNano(), ev.Kind, ev.Detail)
	}
	for _, rc := range res.Reconfigs {
		fmt.Fprintf(&b, "%+v\n", rc)
	}
	fmt.Fprintf(&b, "%d %v %+v\n", res.SessionsMoved, res.ExpectedSessionsMoved, res.Counters)
	return fnvHex(b.Bytes())
}

// checkDriftParity fails t unless a pinned drift run kept what a re-pin must
// never trade away: every session owned, no detection the oracle made
// missed by the fleet, and the fleet counters reconciled.
func checkDriftParity(t *testing.T, res *DriftResult) {
	t.Helper()
	if res.Missed != 0 || res.OwnershipErrors != 0 || !res.Reconciled || res.OracleDetected != res.FleetDetected {
		t.Errorf("missed %d, ownership errors %d, reconciled %v, oracle %d vs fleet %d",
			res.Missed, res.OwnershipErrors, res.Reconciled, res.OracleDetected, res.FleetDetected)
	}
}

// TestRunDriftPinned pins a flash-crowd drift run on the no-mirror LP. Its
// fleet never replicates, so every transition decision is a single Process.
func TestRunDriftPinned(t *testing.T) {
	cfg, err := DriftScenario("flash", topology.Internet2(), 300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDrift(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDriftParity(t, res)
	if got := driftFingerprint(res); got != driftPin {
		t.Errorf("drift run output moved: got %s, want %s\n(%d events, %d reconfigs, moved %d)",
			got, driftPin, len(res.Timeline), len(res.Reconfigs), res.SessionsMoved)
	}
}

// driftPins pins the drift presets and planners TestRunDriftPinned does
// not reach, by driftFullFingerprint. Keys are subtest names.
var driftPins = map[string]string{
	"diurnal":     "62e904d58b89a5ac",
	"drain":       "a38c412753b82afe",
	"flash-naive": "6af8e1bf54c8ffea",
	"flash-1000":  "f8b4ec4f50022e88",
}

// driftFullFingerprint extends driftFingerprint with the session and
// detection counts.
func driftFullFingerprint(res *DriftResult) string {
	return fnvHex([]byte(fmt.Sprintf("%s %d %d %d %d %d %d %d %d", driftFingerprint(res),
		res.Sessions, res.DriftEvents, res.MaliciousSessions, res.OracleDetected,
		res.FleetDetected, res.Missed, res.OwnershipErrors, len(res.Reconfigs))))
}

// TestRunDriftPinnedScenarios pins the diurnal cycle and the rolling drain
// (whose operator-triggered re-solves take the Reconfigure and CapScale
// paths), the flash crowd under the naive planner (every class changes at
// every reconfiguration), and a longer flash crowd whose proposals land at
// arbitrary session indices across many generator batches.
func TestRunDriftPinnedScenarios(t *testing.T) {
	cases := []struct {
		name, scenario   string
		sessionsPerPhase int
		planner          controller.Planner
	}{
		{"diurnal", "diurnal", 300, nil},
		{"drain", "drain", 300, nil},
		{"flash-naive", "flash", 300, controller.NaivePlanner{}},
		{"flash-1000", "flash", 1000, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := DriftScenario(tc.scenario, topology.Internet2(), tc.sessionsPerPhase)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Planner = tc.planner
			res, err := RunDrift(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkDriftParity(t, res)
			if got := driftFullFingerprint(res); got != driftPins[tc.name] {
				t.Errorf("drift run output moved: got %s, want %s\n(%d events, %d reconfigs, moved %d)",
					got, driftPins[tc.name], len(res.Timeline), len(res.Reconfigs), res.SessionsMoved)
			}
		})
	}
}

// TestRunDriftPinnedMirrorDC pins the same flash crowd with mirror-DC
// replication. Its merged transition configs emit two decisions for some
// packets (Dual > 0), so this run pins the per-flow ×n counting of a
// multi-decision dispatch as well as replication to the DC.
func TestRunDriftPinnedMirrorDC(t *testing.T) {
	cfg, err := DriftScenario("flash", topology.Internet2(), 300)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replication = core.ReplicationConfig{Mirror: core.MirrorDCOnly, DCCapacity: 8}
	res, err := RunDrift(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDriftParity(t, res)
	if res.Counters.Replicated != 4404 || res.Counters.Dual != 108 {
		t.Errorf("Replicated %d, Dual %d; want 4404, 108", res.Counters.Replicated, res.Counters.Dual)
	}
	if res.OracleDetected != 79 || res.FleetDetected != 79 {
		t.Errorf("oracle detected %d, fleet %d; want 79, 79", res.OracleDetected, res.FleetDetected)
	}
	if got := driftFingerprint(res); got != driftPinMirrorDC {
		t.Errorf("mirror-DC drift run output moved: got %s, want %s\n(%d events, %d reconfigs, moved %d)",
			got, driftPinMirrorDC, len(res.Timeline), len(res.Reconfigs), res.SessionsMoved)
	}
}

// runPinsMore pins the Run configurations TestRunPinned does not reach, by
// the hash of the whole Result. Keys are subtest names.
var runPinsMore = map[string]string{
	"live":        "c8a3813b1340e958",
	"payload1400": "df276fd12689c8bc",
}

// TestRunPinnedMore pins a live-tunnel run (DetectedSessions there is
// counted from alert tuples after the drain, not per session) and a run of
// 1400 B payloads whose session count is not a multiple of the producer's
// batch size, so the last batch is a partial one.
func TestRunPinnedMore(t *testing.T) {
	_, rep := internet2Assignments(t)
	cases := []struct {
		name    string
		cfg     Config
		partial bool // the run must end on a partial batch
	}{
		{"live", Config{Assignment: rep, TotalSessions: 300, GenSeed: 4, Live: true}, false},
		{"payload1400", Config{Assignment: rep, TotalSessions: 1000, PayloadBytes: 1400, GenSeed: 11, HashSeed: 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.partial && res.Sessions%streamBatchSessions == 0 {
				t.Fatalf("%d sessions fill whole batches of %d; the pin must end on a partial one",
					res.Sessions, streamBatchSessions)
			}
			if res.DetectedSessions != res.MaliciousSessions {
				t.Errorf("detected %d of %d malicious sessions", res.DetectedSessions, res.MaliciousSessions)
			}
			if got := fnvHex([]byte(fmt.Sprintf("%+v", *res))); got != runPinsMore[tc.name] {
				t.Errorf("run output moved: got %s, want %s\n%+v", got, runPinsMore[tc.name], *res)
			}
		})
	}
}

// TestRunLiveMatchesInline runs the same configurations with and without
// live tunnels. Live mode is the only place engines are touched from more
// than one goroutine: a tunnel server delivers a replicated packet to its
// mirror's engine while the walk analyses local packets. With one-hop
// mirrors a PoP's engine gets both, so under the race detector this test
// checks live mode's per-node locks; 1500 sessions fill enough tunnel
// batches that deliveries overlap the walk. The Results must be equal: the
// tunnels change how a packet reaches its mirror, never what the mirror's
// engine sees. Queued replications alias the producer's recycled payload
// arenas, so if a batch were released before its queued packets are sent,
// a mirror would scan another session's bytes under the queued tuple. Half
// the sessions of the last case are malicious, so such a swap gains or
// loses an alert about as often as it can. (With every session malicious
// it would not show: each session has one signature, so a swapped-in
// session brings one alert on the same tuple.) Both runs record a timeline,
// and the exported timeline sections must be byte-equal too: the telemetry
// charges work at decision time, so it must not depend on when a tunnel
// delivers.
func TestRunLiveMatchesInline(t *testing.T) {
	g := topology.Internet2()
	s := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	a, err := core.SolveReplication(s, core.ReplicationConfig{
		Mirror: core.MirrorDCPlusOneHop, DCCapacity: 8, MaxLinkLoad: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		payload   int
		malicious float64 // 0 is the default fraction
	}{{64, 0}, {1400, 0}, {1400, 0.5}}
	for _, tc := range cases {
		payload := tc.payload
		for _, seed := range []int64{2, 9} {
			run := func(live bool) (*Result, string) {
				vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
				reg := obs.NewRegistryWithClock(vc)
				res, err := Run(Config{Assignment: a, TotalSessions: 1500, PayloadBytes: payload, GenSeed: seed,
					HashSeed: uint32(seed), MaliciousFraction: tc.malicious, Live: live, Obs: reg, Clock: vc})
				if err != nil {
					t.Fatal(err)
				}
				timeline, err := json.Marshal(reg.Snapshot(nil).Timeline)
				if err != nil {
					t.Fatal(err)
				}
				return res, string(timeline)
			}
			inline, inlineTimeline := run(false)
			live, liveTimeline := run(true)
			if !reflect.DeepEqual(inline, live) {
				t.Errorf("payload %d seed %d malicious %v: live result differs from inline:\n%+v\n%+v",
					payload, seed, tc.malicious, *inline, *live)
			}
			if inlineTimeline != liveTimeline {
				t.Errorf("payload %d seed %d malicious %v: live timeline differs from inline",
					payload, seed, tc.malicious)
			}
			if inline.DetectedSessions != inline.MaliciousSessions {
				t.Errorf("payload %d seed %d malicious %v: detected %d of %d malicious sessions",
					payload, seed, tc.malicious, inline.DetectedSessions, inline.MaliciousSessions)
			}
			mixed := false // some PoP both analyses its own packets and mirrors another's
			for _, n := range inline.Nodes {
				mixed = mixed || (!n.IsDC && n.Processed > 0 && n.Packets > n.Processed)
			}
			if !mixed {
				t.Errorf("payload %d seed %d: no PoP received replicated packets; the test cannot see a missing lock", payload, seed)
			}
		}
	}
}
