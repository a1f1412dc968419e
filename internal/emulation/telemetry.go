package emulation

import (
	"fmt"
	"time"

	"nwids/internal/core"
	"nwids/internal/obs"
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

// telemetry drives the emulation's tick-granularity time series and drift
// watchers: per-node engine work and shim dispatch deltas, and per-class
// injected bytes, each recorded at the virtual tick boundary. All series
// live in the run's registry and export under the timeline section.
type telemetry struct {
	clock *obs.VirtualClock
	reg   *obs.Registry
	every int

	nodeWork []*obs.Series
	nodeProc []*obs.Series
	lastWork []uint64
	lastCnt  []shim.Counters

	classSeries []*obs.Series
	classBytes  []uint64
	classIdx    map[[2]int]int

	watchers []*obs.Watcher

	workOf func(j int) uint64
	cntOf  func(j int) shim.Counters
}

// newTelemetry builds the tick recorder for a run. reg may be nil (series
// still record, unregistered, so the code path stays identical); log
// receives drift events.
func newTelemetry(cfg Config, clock *obs.VirtualClock, sc *core.Scenario, nNIDS int,
	workOf func(j int) uint64, cntOf func(j int) shim.Counters) *telemetry {
	every := cfg.TickSessions
	if every <= 0 {
		every = DefaultTickSessions
	}
	t := &telemetry{
		clock:    clock,
		reg:      cfg.Obs,
		every:    every,
		nodeWork: make([]*obs.Series, nNIDS),
		nodeProc: make([]*obs.Series, nNIDS),
		lastWork: make([]uint64, nNIDS),
		lastCnt:  make([]shim.Counters, nNIDS),
		classIdx: make(map[[2]int]int),
		workOf:   workOf,
		cntOf:    cntOf,
	}
	for j := 0; j < nNIDS; j++ {
		t.nodeWork[j] = t.reg.Series(fmt.Sprintf("emulation.node.%d.work_units", j))
		t.nodeProc[j] = t.reg.Series(fmt.Sprintf("emulation.node.%d.processed", j))
		// Per-node load drift is the signal the future online controller
		// re-solves on; a tabular CUSUM catches sustained shifts.
		t.watchers = append(t.watchers, obs.WatchSeries(
			fmt.Sprintf("emulation.node.%d.work_units", j),
			t.nodeWork[j], cfg.Log, &obs.CUSUMDetector{}))
	}
	for _, cl := range sc.Classes {
		key := [2]int{cl.Src, cl.Dst}
		if _, ok := t.classIdx[key]; ok {
			continue
		}
		t.classIdx[key] = len(t.classSeries)
		t.classSeries = append(t.classSeries,
			t.reg.Series(fmt.Sprintf("emulation.class.%d-%d.bytes", cl.Src, cl.Dst)))
		t.classBytes = append(t.classBytes, 0)
	}
	return t
}

// addClassBytes accrues injected payload bytes to the (src, dst) class for
// the current tick.
func (t *telemetry) addClassBytes(src, dst int, n uint64) {
	if i, ok := t.classIdx[[2]int{src, dst}]; ok {
		t.classBytes[i] += n
	}
}

// sessionDone is called after each injected session; on a tick boundary it
// records the per-node and per-class deltas and polls the drift watchers.
func (t *telemetry) sessionDone(si int) {
	if (si+1)%t.every == 0 {
		t.tick()
	}
}

// tick records one sample per series at the current virtual time.
func (t *telemetry) tick() {
	now := t.clock.Now()
	for j := range t.nodeWork {
		work := t.workOf(j)
		t.nodeWork[j].RecordAt(now, float64(work-t.lastWork[j]))
		t.lastWork[j] = work

		cnt := t.cntOf(j)
		t.nodeProc[j].RecordAt(now, float64(cnt.Sub(t.lastCnt[j]).Processed))
		t.lastCnt[j] = cnt
	}
	for i, s := range t.classSeries {
		s.RecordAt(now, float64(t.classBytes[i]))
		t.classBytes[i] = 0
	}
	for _, w := range t.watchers {
		w.Poll()
	}
}

// finish flushes a trailing partial tick so the last sessions are not lost
// from the timeline.
func (t *telemetry) finish(sessions int) {
	if sessions%t.every != 0 {
		t.tick()
	}
}
