package emulation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"nwids/internal/nids"
	"nwids/internal/obs"
	"nwids/internal/packet"
	"nwids/internal/shim"
)

// TestEmulationTimelineDeterminism is the telemetry-plane acceptance check:
// with the virtual clock, two identical runs export byte-identical timeline
// sections and identical trace files, independent of wall time.
func TestEmulationTimelineDeterminism(t *testing.T) {
	_, rep := internet2Assignments(t)
	one := func() (string, string) {
		vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
		reg := obs.NewRegistryWithClock(vc)
		tr := obs.NewTracer(vc)
		_, err := Run(Config{
			Assignment: rep, TotalSessions: 300, GenSeed: 9,
			Obs: reg, Clock: vc, Trace: tr, TickSessions: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot(nil)
		timeline, err := json.Marshal(snap.Timeline)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := tr.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return string(timeline), trace.String()
	}
	tl1, tr1 := one()
	tl2, tr2 := one()
	if tl1 != tl2 {
		t.Error("timeline sections differ between identical runs")
	}
	if tr1 != tr2 {
		t.Error("trace files differ between identical runs")
	}
}

// TestEmulationTimelineContents checks the exported timeline carries
// per-node and per-class series with virtual-time samples.
func TestEmulationTimelineContents(t *testing.T) {
	_, rep := internet2Assignments(t)
	vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
	reg := obs.NewRegistryWithClock(vc)
	res, err := Run(Config{
		Assignment: rep, TotalSessions: 300, GenSeed: 9,
		Obs: reg, Clock: vc, TickSessions: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(nil)

	// At 32 sessions per tick, every series carries one sample per full
	// tick plus a trailing flush for the remainder.
	wantSamples := res.Sessions / 32
	if res.Sessions%32 != 0 {
		wantSamples++
	}
	var nodeSeries, classSeries int
	for name, s := range snap.Timeline {
		switch {
		case strings.HasPrefix(name, "emulation.node."):
			nodeSeries++
			if s.Count != uint64(wantSamples) {
				t.Errorf("%s has %d samples, want %d", name, s.Count, wantSamples)
			}
		case strings.HasPrefix(name, "emulation.class."):
			classSeries++
		}
		if !s.Start.Equal(time.Unix(0, 0).UTC()) && s.Count > 0 && s.T[0] < 0 {
			t.Errorf("%s has samples before the virtual origin", name)
		}
	}
	if want := 2 * len(res.Nodes); nodeSeries != want {
		t.Errorf("node series = %d, want %d (work_units + processed per node)", nodeSeries, want)
	}
	if classSeries == 0 {
		t.Error("no per-class byte series in timeline")
	}

	// Work recorded on the timeline must reconcile with the per-node result:
	// the series carries deltas, so its sum equals the node's total work.
	for j, n := range res.Nodes {
		var sum float64
		for _, v := range snap.Timeline[nodeSeriesName(j, "work_units")].V {
			sum += v
		}
		if sum != float64(n.WorkUnits) {
			t.Errorf("node %d timeline sum = %g, result work = %d", j, sum, n.WorkUnits)
		}
	}
}

func nodeSeriesName(j int, kind string) string {
	return fmt.Sprintf("emulation.node.%d.%s", j, kind)
}

// TestEmulationDriftOnLoadShift synthesizes a load shift through the
// telemetry tick path directly and checks exactly one drift event fires,
// deterministically — the emulation analogue of the detector unit tests.
func TestEmulationDriftOnLoadShift(t *testing.T) {
	one := func() []obs.DriftEvent {
		vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
		s := obs.NewSeries(obs.DefaultSeriesCap, vc)
		w := obs.WatchSeries("emulation.node.0.work_units", s, nil, &obs.CUSUMDetector{})
		// Steady per-tick load, then the class mix shifts and the node's
		// work doubles and stays there.
		load := func(tick int) float64 {
			base := 100.0 + float64(tick%4) // small deterministic ripple
			if tick >= 30 {
				return 2 * base
			}
			return base
		}
		for tick := 0; tick < 60; tick++ {
			s.Record(load(tick))
			vc.Advance(640 * time.Microsecond) // one 64-session tick of packetTicks
			w.Poll()
		}
		return w.Events()
	}
	ev1, ev2 := one(), one()
	if len(ev1) != 1 {
		t.Fatalf("got %d drift events, want exactly 1: %+v", len(ev1), ev1)
	}
	if len(ev2) != 1 || ev1[0] != ev2[0] {
		t.Errorf("drift event not deterministic: %+v vs %+v", ev1, ev2)
	}
	if ev1[0].Direction != 1 || ev1[0].Series != "emulation.node.0.work_units" {
		t.Errorf("event = %+v", ev1[0])
	}
}

// TestTelemetryOnlyWhenRead: Run records a timeline only when something
// reads it. With Obs and Log both nil there is no recorder; either one
// alone builds one, and the drift watchers exist only for a logger.
func TestTelemetryOnlyWhenRead(t *testing.T) {
	_, rep := internet2Assignments(t)
	sc := rep.Scenario
	shims := make([]*shim.Shim, rep.NumNIDS())
	for j, c := range shim.CompileConfigs(rep, 1) {
		shims[j] = shim.New(c)
	}
	log := obs.NewLogger(io.Discard, obs.LevelWarn)
	cases := []struct {
		name     string
		cfg      Config
		built    bool
		watchers int
	}{
		{"neither", Config{}, false, 0},
		{"obs", Config{Obs: obs.NewRegistry()}, true, 0},
		{"log", Config{Log: log}, true, len(shims)},
		{"both", Config{Obs: obs.NewRegistry(), Log: log}, true, len(shims)},
	}
	for _, tc := range cases {
		tel := newTelemetry(tc.cfg.withDefaults(), sc, shims)
		if (tel != nil) != tc.built {
			t.Errorf("%s: telemetry built = %v, want %v", tc.name, tel != nil, tc.built)
			continue
		}
		if tel != nil && len(tel.watchers) != tc.watchers {
			t.Errorf("%s: %d watchers, want %d", tc.name, len(tel.watchers), tc.watchers)
		}
	}
}

// TestRunLogOnlyDrift: a Run with a logger and no registry records its
// timeline unregistered, and its watchers log the same drift events as the
// same Run with a registry attached.
func TestRunLogOnlyDrift(t *testing.T) {
	_, rep := internet2Assignments(t)
	drift := func(reg *obs.Registry) []map[string]any {
		var buf bytes.Buffer
		_, err := Run(Config{
			Assignment: rep, TotalSessions: 2000, PacketsPerSession: 2, PayloadBytes: 32,
			GenSeed: 3, TickSessions: 16, Obs: reg, Log: obs.NewLogger(&buf, obs.LevelWarn),
		})
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.DecodeEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var fields []map[string]any
		for _, ev := range events {
			if ev.Msg == "drift" {
				fields = append(fields, ev.Fields)
			}
		}
		return fields
	}
	logOnly := drift(nil)
	withObs := drift(obs.NewRegistryWithClock(obs.NewVirtualClock(time.Unix(0, 0).UTC())))
	if len(logOnly) == 0 {
		t.Fatal("no drift event fired; the comparison is vacuous")
	}
	if !reflect.DeepEqual(logOnly, withObs) {
		t.Errorf("drift events differ:\nlog only %v\nwith obs %v", logOnly, withObs)
	}
}

// TestTelemetryFinishChecksWork: after the drain every engine must have
// done the work the walk charged to it; a node whose engine did not is an
// error that names it.
func TestTelemetryFinishChecksWork(t *testing.T) {
	_, rep := internet2Assignments(t)
	shims := make([]*shim.Shim, rep.NumNIDS())
	engines := make([]*nids.Engine, rep.NumNIDS())
	for j, c := range shim.CompileConfigs(rep, 1) {
		shims[j] = shim.New(c)
		engines[j] = nids.NewEngine(nids.DefaultRules(), 20)
	}
	tel := newTelemetry(Config{Obs: obs.NewRegistry()}.withDefaults(), rep.Scenario, shims)
	p := packet.Packet{Payload: make([]byte, 100)}
	tel.charge(2, shim.Decision{Act: shim.Process}, p)
	tel.charge(0, shim.Decision{Act: shim.Replicate, Mirror: 3}, p)
	engines[2].ProcessPacket(p)
	engines[3].ProcessPacket(p)
	if err := tel.finish(1, engines); err != nil {
		t.Fatalf("charge matches the engines: %v", err)
	}
	tel.charge(5, shim.Decision{Act: shim.Process}, p) // never delivered
	err := tel.finish(1, engines)
	if err == nil || !strings.Contains(err.Error(), "node 5") {
		t.Errorf("undelivered packet at node 5: error %v", err)
	}
}
