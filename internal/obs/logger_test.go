package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeLog parses a JSONL stream written by Logger, one map per line.
func decodeLog(t *testing.T, r io.Reader) []map[string]any {
	t.Helper()
	var out []map[string]any
	dec := json.NewDecoder(r)
	for dec.More() {
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		out = append(out, ev)
	}
	return out
}

// TestLoggerRoundTrip writes events and decodes them back from the JSONL
// stream.
func TestLoggerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	fixed := time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.UTC)
	l.now = func() time.Time { return fixed }

	l.Debug("starting", "topology", "Internet2", "sessions", 4000)
	l.Info("solve done", "iters", 412, "objective", 0.517)
	l.Warn("drain slow", "pending", 3)
	l.Error("tunnel failed", "node", 7)

	events := decodeLog(t, &buf)
	if len(events) != 4 {
		t.Fatalf("decoded %d events, want 4", len(events))
	}
	wantLevels := []string{"debug", "info", "warn", "error"}
	wantMsgs := []string{"starting", "solve done", "drain slow", "tunnel failed"}
	for i, ev := range events {
		if ev["level"] != wantLevels[i] || ev["msg"] != wantMsgs[i] {
			t.Errorf("event %d = %v/%v, want %q/%q", i, ev["level"], ev["msg"], wantLevels[i], wantMsgs[i])
		}
		if ts, _ := ev["ts"].(string); ts != fixed.Format(time.RFC3339Nano) {
			t.Errorf("event %d ts = %v, want %v", i, ev["ts"], fixed)
		}
	}
	if got := events[0]["topology"]; got != "Internet2" {
		t.Errorf("field topology = %v", got)
	}
	if got := events[1]["iters"]; got != float64(412) {
		t.Errorf("field iters = %v (%T)", got, got)
	}
}

// TestLoggerLevels checks filtering and the nil-logger contract.
func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("hidden")
	l.Info("hidden")
	l.Warn("shown")
	l.Error("shown too")
	if events := decodeLog(t, &buf); len(events) != 2 {
		t.Fatalf("decoded %d events, want 2", len(events))
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Error("Enabled thresholds wrong")
	}
	if l.Logf(LevelDebug) != nil {
		t.Error("Logf below level should be nil")
	}
	if f := l.Logf(LevelError); f == nil {
		t.Error("Logf at level should be non-nil")
	}

	var nilLogger *Logger
	nilLogger.Info("dropped") // must not panic
	if nilLogger.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
	if nilLogger.Logf(LevelError) != nil {
		t.Error("nil logger Logf should be nil")
	}
}

// TestLoggerConcurrent exercises the writer lock under -race and checks
// that no two events interleave on one line.
func TestLoggerConcurrent(t *testing.T) {
	var buf syncBuffer
	l := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Info("tick", "i", i)
			}
		}()
	}
	wg.Wait()
	events := decodeLog(t, strings.NewReader(buf.String()))
	if len(events) != 8*200 {
		t.Fatalf("decoded %d events, want %d", len(events), 8*200)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
