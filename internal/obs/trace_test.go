package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTracerSpanTree(t *testing.T) {
	vc := virtualAt(0)
	tr := NewTracer(vc)

	root := tr.StartSpan("solve").Arg("graph", "Internet2")
	vc.Advance(time.Millisecond)
	build := root.Child("model.build")
	vc.Advance(2 * time.Millisecond)
	build.End()
	lp := root.Child("lp")
	vc.Advance(time.Millisecond)
	lp.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Sorted by start time: root first.
	if spans[0].Name != "solve" || spans[0].Parent != 0 {
		t.Errorf("spans[0] = %+v, want root 'solve'", spans[0])
	}
	for _, sp := range spans[1:] {
		if sp.Parent != spans[0].ID {
			t.Errorf("span %q parent = %d, want %d", sp.Name, sp.Parent, spans[0].ID)
		}
	}
	if spans[1].Name != "model.build" || spans[1].End.Sub(spans[1].Start) != 2*time.Millisecond {
		t.Errorf("child span timing: %+v", spans[1])
	}
	if len(spans[0].Args) != 1 || spans[0].Args[0].Key != "graph" {
		t.Errorf("root args = %+v", spans[0].Args)
	}
}

func TestTracerHook(t *testing.T) {
	vc := virtualAt(0)
	tr := NewTracer(vc)
	root := tr.StartSpan("solve")
	hook := root.Hook()
	end := hook("lp.phase1")
	vc.Advance(time.Millisecond)
	end()
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Name != "lp.phase1" || spans[1].Parent != spans[0].ID {
		t.Fatalf("hook spans = %+v", spans)
	}

	// The nil-span hook is nil itself, matching lp.Options' "nil means no
	// tracing" convention.
	var none *TraceSpan
	if none.Hook() != nil {
		t.Error("nil span Hook() should be nil")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	// The whole span API must be callable on nil.
	sp.Child("y").Arg("k", 1).End()
	sp.End()
	sp.End() // double End is also fine
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer spans = %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("empty trace is not valid JSON: %s", buf.String())
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	render := func() string {
		vc := virtualAt(50)
		tr := NewTracer(vc)
		root := tr.StartSpan("emulation.run").Arg("sessions", 2)
		for i := 0; i < 2; i++ {
			s := root.Child("session").Arg("index", i)
			vc.Advance(10 * time.Microsecond)
			s.End()
		}
		root.End()
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("trace output not byte-identical:\n%s\nvs\n%s", a, b)
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(a), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	// Timestamps are microseconds relative to the earliest span.
	if ev := doc.TraceEvents[0]; ev.Name != "emulation.run" || ev.Ph != "X" || ev.TS != 0 || ev.Dur != 20 {
		t.Errorf("root event = %+v", ev)
	}
	if ev := doc.TraceEvents[2]; ev.TS != 10 || ev.Dur != 10 {
		t.Errorf("second session event = %+v", ev)
	}
	for _, ev := range doc.TraceEvents[1:] {
		if ev.Args["parent_id"] == nil || ev.Args["span_id"] == nil {
			t.Errorf("event %q missing span linkage: %v", ev.Name, ev.Args)
		}
	}
	if strings.Contains(a, "NaN") || strings.Contains(a, "Inf") {
		t.Error("trace contains non-finite numbers")
	}
}
