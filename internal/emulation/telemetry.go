package emulation

import (
	"fmt"
	"time"

	"nwids/internal/core"
	"nwids/internal/nids"
	"nwids/internal/obs"
	"nwids/internal/packet"
	"nwids/internal/shim"
)

// Telemetry cadence. The emulation's virtual clock advances by fixed
// amounts per unit of simulated work — never by wall time — so every
// recorded timestamp, series sample and trace span is a pure function of
// the workload. The advances happen unconditionally (whether or not a
// tracer or registry is attached), keeping the timeline identical across
// telemetry configurations.
const (
	// DefaultTickSessions is the session count between telemetry ticks.
	DefaultTickSessions = 64
	// packetTick is charged per packet injection (the ingress hop).
	packetTick = 10 * time.Microsecond
	// dispatchTick is charged per shim hash/dispatch decision.
	dispatchTick = time.Microsecond
	// actionTick is charged per analysis or replication action.
	actionTick = 5 * time.Microsecond
	// defaultTraceSessions is how many sessions get per-packet spans when a
	// tracer is attached; later sessions advance the clock identically but
	// record no spans, keeping trace files bounded.
	defaultTraceSessions = 8
)

// telemetry drives Run's tick-granularity time series and drift watchers:
// per-node engine work and shim dispatch deltas, and per-class injected
// bytes, each charged on the walking goroutine and recorded at the virtual
// tick boundary, so live mode records what inline mode does.
type telemetry struct {
	clock *obs.VirtualClock
	every int
	nPoP  int
	shims []*shim.Shim

	nodeWork []*obs.Series
	nodeProc []*obs.Series
	work     []uint64 // engine work units charged per node so far
	lastWork []uint64
	lastCnt  []shim.Counters

	classSeries []*obs.Series // by class src·nPoP+dst; nil for no class
	classBytes  []uint64

	watchers []*obs.Watcher
}

// newTelemetry builds the tick recorder for a run, or nil when neither
// cfg.Obs nor cfg.Log would read it. With a nil cfg.Obs the series record
// unregistered; the drift watchers exist only for cfg.Log.
func newTelemetry(cfg Config, sc *core.Scenario, shims []*shim.Shim) *telemetry {
	if cfg.Obs == nil && cfg.Log == nil {
		return nil
	}
	nNIDS, nPoP := len(shims), sc.Graph.NumNodes()
	t := &telemetry{
		clock:       cfg.Clock,
		every:       cfg.TickSessions,
		nPoP:        nPoP,
		shims:       shims,
		nodeWork:    make([]*obs.Series, nNIDS),
		nodeProc:    make([]*obs.Series, nNIDS),
		work:        make([]uint64, nNIDS),
		lastWork:    make([]uint64, nNIDS),
		lastCnt:     make([]shim.Counters, nNIDS),
		classSeries: make([]*obs.Series, nPoP*nPoP),
		classBytes:  make([]uint64, nPoP*nPoP),
	}
	for j := 0; j < nNIDS; j++ {
		t.nodeWork[j] = cfg.Obs.Series(fmt.Sprintf("emulation.node.%d.work_units", j))
		t.nodeProc[j] = cfg.Obs.Series(fmt.Sprintf("emulation.node.%d.processed", j))
		if cfg.Log != nil { // a tabular CUSUM catches sustained load shifts
			t.watchers = append(t.watchers, obs.WatchSeries(
				fmt.Sprintf("emulation.node.%d.work_units", j),
				t.nodeWork[j], cfg.Log, &obs.CUSUMDetector{}))
		}
	}
	for _, cl := range sc.Classes {
		if c := cl.Src*nPoP + cl.Dst; t.classSeries[c] == nil {
			t.classSeries[c] = cfg.Obs.Series(fmt.Sprintf("emulation.class.%d-%d.bytes", cl.Src, cl.Dst))
		}
	}
	return t
}

// charge accrues what the engine that analyses p under decision d at
// node will add to its Stats().WorkUnits: the mirror's on Replicate.
func (t *telemetry) charge(node int, d shim.Decision, p packet.Packet) {
	if d.Act == shim.Replicate {
		node = d.Mirror
	}
	t.work[node] += uint64(len(p.Payload)) + nids.PacketOverhead
}

// sessionDone accrues walked session si's bytes to its class; on a tick
// boundary it records every series and polls the drift watchers.
func (t *telemetry) sessionDone(si int, sess *packet.Session) {
	t.classBytes[sess.SrcPoP*t.nPoP+sess.DstPoP] += payloadBytes(sess)
	if (si+1)%t.every == 0 {
		t.tick()
	}
}

// tick records one sample per series at the current virtual time.
func (t *telemetry) tick() {
	now := t.clock.Now()
	for j := range t.nodeWork {
		t.nodeWork[j].RecordAt(now, float64(t.work[j]-t.lastWork[j]))
		t.lastWork[j] = t.work[j]

		cnt := t.shims[j].Counters
		t.nodeProc[j].RecordAt(now, float64(cnt.Sub(t.lastCnt[j]).Processed))
		t.lastCnt[j] = cnt
	}
	for c, s := range t.classSeries {
		if s != nil {
			s.RecordAt(now, float64(t.classBytes[c]))
			t.classBytes[c] = 0
		}
	}
	for _, w := range t.watchers {
		w.Poll()
	}
}

// finish flushes a trailing partial tick, then requires every engine,
// which has seen every packet by now, to have done the work charged to it.
func (t *telemetry) finish(sessions int, engines []*nids.Engine) error {
	if sessions%t.every != 0 {
		t.tick()
	}
	for j, e := range engines {
		if got := e.Stats().WorkUnits(); got != t.work[j] {
			return fmt.Errorf("emulation: node %d engine did %d work units, telemetry charged %d", j, got, t.work[j])
		}
	}
	return nil
}
