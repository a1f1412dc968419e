package nids

import (
	"nwids/internal/packet"
)

// Alert is a signature detection event.
type Alert struct {
	RuleID   int
	Name     string
	Severity int
	Tuple    packet.FiveTuple
}

// Stats aggregates an engine's work counters. BytesScanned plus the
// per-packet overhead is the deterministic "CPU instructions" stand-in used
// by the emulation (each scanned byte is one automaton transition).
type Stats struct {
	Packets         uint64
	BytesScanned    uint64
	Alerts          uint64
	FlowsTotal      uint64
	FlowsBothDirs   uint64
	FlowsOneSided   uint64
	ScanObservables uint64
}

// PacketOverhead is the fixed per-packet work charged on top of payload
// scanning (capture, classification, flow lookup).
const PacketOverhead = 24

// WorkUnits returns the engine's total work in deterministic units.
func (s Stats) WorkUnits() uint64 {
	return s.BytesScanned + PacketOverhead*s.Packets
}

// flowState tracks one bidirectional session. It is stored inline in the
// flow table's slot (no per-flow heap pointer); a new flow starts from the
// zero value.
type flowState struct {
	fwdState, revState int32 // automaton states per direction
	seenFwd, seenRev   bool
	// scanObserved marks that the flow's (src, dst) pair has been handed to
	// the scan detector; repeats would be set-insert no-ops, so they are
	// skipped without touching the detector's tables.
	scanObserved bool
}

// Engine is a single NIDS instance: a signature matcher with streaming
// per-flow state, a scan detector, and a bidirectional flow table. It plays
// the role of the unmodified Snort/Bro process running above the shim.
// Engines are not safe for concurrent use; the emulation runs one per node.
type Engine struct {
	rules   []Rule
	matcher *Matcher
	scan    *ScanDetector
	flows   table[packet.FiveTuple, flowState]
	// bothDirs counts the live flows seen in both directions. It is bumped
	// in ProcessPacket when a flow's second direction first appears and
	// cleared with the table in ResetEpoch, so Stats never walks the table.
	// It lives here rather than in flowState: no per-flow byte is added.
	bothDirs uint64
	alerts   []Alert
	stats    Stats
	matchBuf []Match
}

// NewEngine builds an engine with the given ruleset and scan threshold k,
// compiling a private automaton for the ruleset's patterns.
func NewEngine(rules []Rule, scanK int) *Engine {
	return NewEngineWithMatcher(rules, NewMatcher(Patterns(rules)), scanK)
}

// NewEngineWithMatcher builds an engine around an already compiled
// automaton, so a fleet of engines running one ruleset compiles it once
// instead of once per node (the automaton is by far the most expensive part
// of an engine to build). m must have been built from Patterns(rules):
// match indices are used to index rules. The matcher is only read, never
// written, so any number of engines on any goroutines may share it; all
// mutable scan state (per-direction automaton states, the match buffer)
// stays in the engine. Cost: O(1), no allocation beyond the engine itself.
func NewEngineWithMatcher(rules []Rule, m *Matcher, scanK int) *Engine {
	if m.NumPatterns() != len(rules) {
		panic("nids: matcher was not built from this ruleset")
	}
	return &Engine{
		rules:   rules,
		matcher: m,
		scan:    NewScanDetector(scanK),
		flows:   table[packet.FiveTuple, flowState]{hash: tupleHash},
	}
}

// ProcessPacket runs signature and scan analysis on one packet. The steady
// state allocates nothing: the flow table stores state inline, the match
// buffer is reused across packets, and only a growing alert backlog or a
// brand-new flow/scan pair can trigger amortized growth.
//
//nwids:hotpath
func (e *Engine) ProcessPacket(p packet.Packet) {
	e.stats.Packets++
	e.stats.BytesScanned += uint64(len(p.Payload))

	key := p.Tuple.Canonical()
	fs, inserted := e.flows.cached(key), false
	if fs == nil {
		fs, inserted = e.flows.get(key, tupleHash(key))
	}
	if inserted {
		e.stats.FlowsTotal++
	}
	// Direction relative to the canonical tuple keeps both halves of the
	// session in one entry regardless of which direction arrives first.
	canonicalDir := p.Tuple == key
	var st *int32
	if canonicalDir {
		st = &fs.fwdState
		if !fs.seenFwd {
			fs.seenFwd = true
			if fs.seenRev {
				e.bothDirs++
			}
		}
	} else {
		st = &fs.revState
		if !fs.seenRev {
			fs.seenRev = true
			if fs.seenFwd {
				e.bothDirs++
			}
		}
	}
	var matched []Match
	*st, matched = e.matcher.ScanStreamInto(*st, p.Payload, e.matchBuf[:0])
	e.matchBuf = matched[:0]
	for _, m := range matched {
		r := &e.rules[m.Pattern]
		// Snort-like header filter: the payload matched, but the rule may
		// be scoped to a protocol/port the packet doesn't carry.
		if !r.MatchesHeader(p.Tuple.Proto, p.Tuple.SrcPort, p.Tuple.DstPort) {
			continue
		}
		e.alerts = append(e.alerts, Alert{RuleID: r.ID, Name: r.Name, Severity: r.Severity, Tuple: p.Tuple})
		e.stats.Alerts++
	}
	// Scan analysis counts initiator→responder contacts only. Later forward
	// packets of the same flow carry the same (src, dst) pair — a no-op
	// insert — so only the first reaches the detector.
	if p.Dir == packet.Forward {
		e.stats.ScanObservables++
		if !fs.scanObserved {
			fs.scanObserved = true
			e.scan.Observe(p.Tuple.SrcIP, p.Tuple.DstIP)
		}
	}
}

// ProcessSession feeds every packet of a session through the engine.
func (e *Engine) ProcessSession(s packet.Session) {
	for _, p := range s.Packets {
		e.ProcessPacket(p)
	}
}

// Stats returns a snapshot of the work counters in O(1): no table walk and
// no allocation, so it is safe to call at every telemetry tick however many
// flows are live. FlowsBothDirs and FlowsOneSided describe the flows live
// in the current epoch (FlowsBothDirs + FlowsOneSided == ActiveFlows) and
// come from a tally ProcessPacket keeps incrementally; every other field is
// cumulative across epochs.
func (e *Engine) Stats() Stats {
	st := e.stats
	st.FlowsBothDirs = e.bothDirs
	st.FlowsOneSided = uint64(e.flows.count) - e.bothDirs
	return st
}

// Alerts returns the alerts raised so far (shared slice; do not modify —
// and note ResetEpoch reuses its backing array, invalidating previously
// returned slices).
func (e *Engine) Alerts() []Alert { return e.alerts }

// ScanDetector exposes the engine's scan module for report extraction.
func (e *Engine) ScanDetector() *ScanDetector { return e.scan }

// ActiveFlows returns the current flow-table size (the memory resource).
func (e *Engine) ActiveFlows() int { return e.flows.count }

// ResetEpoch clears per-epoch analysis state (flows, alerts, scan counters)
// while keeping cumulative work statistics. All buffers are cleared in
// place and reused — flow-table slots, alert capacity and scan sets — so
// an epoch rollover is not an allocation spike; callers that retained a
// slice from Alerts must copy it before resetting.
func (e *Engine) ResetEpoch() {
	e.flows.reset()
	e.bothDirs = 0
	e.alerts = e.alerts[:0]
	e.scan.Reset()
}
