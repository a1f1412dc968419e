package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"nwids/internal/obs"
)

const ms = time.Millisecond

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15 * ms, End: 25 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 50 * ms, End: 90 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 30 * ms, 2: 20 * ms, 3: 10 * ms, 4: 40 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	// Self times of a tree add back up to the root's duration.
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", total)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// b starts before a, overlaps it, and c sticks out of the parent:
		// covered = [10,60) ∪ [90,100) = 60ms, whatever the order.
		{ID: 2, Parent: 1, Name: "a", Start: 30 * ms, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 10 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// d lies inside a and b: adds no cover.
		{ID: 5, Parent: 1, Name: "d", Start: 32 * ms, End: 38 * ms},
	}
	if got := selfTimes(spans)[1]; got != 40*ms {
		t.Errorf("root self = %v, want 40ms", got)
	}
}

func TestRecorderNestingAdoptAndExport(t *testing.T) {
	var none *recorder
	none.end(none.begin("nil recorders record nothing")) // must not panic
	none.adopt(0, nil)

	rec := newRecorder()
	rec.workload, rec.rep = "w", 3
	outer := rec.begin("outer")
	inner := rec.begin("inner")
	rec.end(inner)
	rec.end(outer)
	if rec.spans[1].Parent != outer || rec.spans[0].Parent != 0 {
		t.Fatalf("parents: %+v", rec.spans)
	}

	// Program spans keep their own nesting under the adopting span.
	tr := obs.NewTracer(nil)
	p := tr.StartSpan("prog")
	c := p.Child("prog.child")
	c.End()
	p.End()
	rec.adopt(outer, tr.Spans())
	byName := map[string]span{}
	for _, s := range rec.spans {
		byName[s.Name] = s
	}
	if byName["prog"].Parent != outer || byName["prog.child"].Parent != byName["prog"].ID {
		t.Errorf("adopted spans lost their nesting: %+v", rec.spans)
	}
	if byName["prog"].Workload != "w" || byName["prog"].Rep != 3 {
		t.Errorf("adopted span not tagged: %+v", byName["prog"])
	}

	var buf bytes.Buffer
	if err := rec.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(rec.spans) {
		t.Fatalf("%d events for %d spans", len(doc.TraceEvents), len(rec.spans))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Args["workload"] != "w" {
			t.Errorf("event %+v", e)
		}
	}
}
