package obs

import (
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracing complements the aggregate instruments with causality: a Tracer
// hands out spans with parent/child IDs so a whole solve (model build →
// phase 1 → phase 2 → extract) or a packet's path through the emulation
// (ingress → dispatch → analysis → aggregation) shows up as one nested
// timeline. Spans are stamped by the tracer's Clock, so under a virtual
// clock the exported trace is byte-identical run to run. The export format
// is Chrome trace_event JSON, loadable directly in about:tracing and
// Perfetto.

// TraceArg is one key/value annotation on a span, kept in attachment order
// so the export is deterministic without sorting.
type TraceArg struct {
	Key   string
	Value any
}

// SpanRecord is one completed span as stored by the tracer.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Start  time.Time
	End    time.Time
	Args   []TraceArg
}

// Tracer collects completed spans. A nil *Tracer is a valid no-op sink:
// StartSpan on it returns a nil span whose whole API is safe to call, so
// traced code paths cost two nil checks when tracing is off.
type Tracer struct {
	mu     sync.Mutex
	clock  Clock
	nextID uint64
	spans  []SpanRecord
}

// NewTracer returns a tracer stamping spans with clock (nil means Wall).
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = Wall
	}
	return &Tracer{clock: clock}
}

// TraceSpan is one in-flight traced region. Spans are single-owner: the
// goroutine that starts a span ends it (children may be handed off).
type TraceSpan struct {
	tracer *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	args   []TraceArg
	ended  bool
}

// StartSpan opens a root span.
func (t *Tracer) StartSpan(name string) *TraceSpan {
	if t == nil {
		return nil
	}
	return t.start(name, 0)
}

func (t *Tracer) start(name string, parent uint64) *TraceSpan {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &TraceSpan{
		tracer: t, id: id, parent: parent, name: name,
		start: t.clock.Now(),
	}
}

// Child opens a span nested under s.
func (s *TraceSpan) Child(name string) *TraceSpan {
	if s == nil {
		return nil
	}
	return s.tracer.start(name, s.id)
}

// Arg attaches a key/value annotation and returns the span.
func (s *TraceSpan) Arg(key string, value any) *TraceSpan {
	if s != nil {
		s.args = append(s.args, TraceArg{Key: key, Value: value})
	}
	return s
}

// End closes the span and records it with the tracer. Extra Ends are
// ignored.
func (s *TraceSpan) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.tracer
	rec := SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, End: t.clock.Now(), Args: s.args,
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// Hook adapts a span into the `func(name string) func()` callback shape
// used by packages that must not import obs (lp.Options.StartSpan): each
// call opens a child of s and returns its End. A nil span yields a nil
// hook, preserving the "nil means off" convention downstream.
func (s *TraceSpan) Hook() func(name string) func() {
	if s == nil {
		return nil
	}
	return func(name string) func() {
		child := s.Child(name)
		return child.End
	}
}

// Spans returns the completed spans sorted by start time, then ID.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteChromeTrace writes the completed spans as Chrome trace_event JSON
// ("X" complete events on one thread lane, microsecond timestamps relative
// to the earliest span). The output is deterministic: spans are ordered by
// start time and ID, and args keep attachment order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	var base time.Time
	if len(spans) > 0 {
		base = spans[0].Start
	}
	b := []byte(`{"traceEvents":[`)
	for i, sp := range spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n"...)
		b = append(b, `{"name":`...)
		b = appendJSON(b, sp.Name)
		b = append(b, `,"cat":"nwids","ph":"X","pid":1,"tid":0,"ts":`...)
		b = appendJSON(b, micros(sp.Start.Sub(base)))
		b = append(b, `,"dur":`...)
		b = appendJSON(b, micros(sp.End.Sub(sp.Start)))
		b = append(b, `,"id":`...)
		b = appendJSON(b, sp.ID)
		b = append(b, `,"args":{"span_id":`...)
		b = appendJSON(b, sp.ID)
		if sp.Parent != 0 {
			b = append(b, `,"parent_id":`...)
			b = appendJSON(b, sp.Parent)
		}
		for _, a := range sp.Args {
			b = append(b, ',')
			b = appendJSON(b, a.Key)
			b = append(b, ':')
			b = appendJSON(b, a.Value)
		}
		b = append(b, `}}`...)
	}
	b = append(b, "\n],\"displayTimeUnit\":\"ms\"}\n"...)
	_, err := w.Write(b)
	return err
}

// micros converts a duration to trace_event microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTraceFile writes the trace to path, creating or truncating it.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		//lint:ignore errdiscard error-path cleanup: the WriteChromeTrace error is the one worth surfacing
		f.Close()
		return err
	}
	return f.Close()
}
