package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"nwids/internal/obs"
)

// span is one traced interval. Times are offsets from the recorder's
// epoch; Parent is the ID of the span that was open when this one began,
// 0 for a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
	Workload   string
	Rep        int
}

// recorder keeps the harness's spans in memory until the run ends. Spans
// go around batches of calls into a layer, never around a single
// nanosecond-scale call. A nil recorder records nothing, so the same pass
// code runs traced and untraced.
type recorder struct {
	epoch    time.Time
	spans    []span
	open     []int // stack of open span IDs
	workload string
	rep      int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span as a child of the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Start: time.Since(r.epoch),
		End: -1, Workload: r.workload, Rep: r.rep,
	})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// adopt copies the program's own spans (the ones behind
// ReplicationConfig.Trace and emulation.Config.Trace) under parent, keeping
// their nesting, so harness and program spans form one tree.
func (r *recorder) adopt(parent int, recs []obs.SpanRecord) {
	if r == nil {
		return
	}
	ids := make(map[uint64]int, len(recs))
	for _, rec := range recs { // sorted by start, so a parent precedes its children
		p, ok := ids[rec.Parent]
		if !ok {
			p = parent
		}
		id := len(r.spans) + 1
		ids[rec.ID] = id
		r.spans = append(r.spans, span{
			ID: id, Parent: p, Name: rec.Name,
			Start: rec.Start.Sub(r.epoch), End: rec.End.Sub(r.epoch),
			Workload: r.workload, Rep: r.rep,
		})
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// covered by its children. Children may overlap each other and may stick
// out of the parent: the covered part is the union of the child intervals
// clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self times per repetition and span name, in seconds.
func selfByName(spans []span) map[int]map[string]float64 {
	self := selfTimes(spans)
	out := make(map[int]map[string]float64)
	for _, s := range spans {
		if out[s.Rep] == nil {
			out[s.Rep] = make(map[string]float64)
		}
		out[s.Rep][s.Name] += self[s.ID].Seconds()
	}
	return out
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes every recorded span as Chrome trace_event JSON,
// loadable in about:tracing and Perfetto.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	self := selfTimes(r.spans)
	events := make([]traceEvent, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "workload": s.Workload, "rep": s.Rep,
				"self_us": float64(self[s.ID].Nanoseconds()) / 1e3,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}
