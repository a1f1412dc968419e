package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Level orders log severities.
type Level int8

// Severities, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Logger writes one JSON object per event (JSONL) with a timestamp, level,
// message and optional key/value fields:
//
//	{"ts":"2026-08-06T12:00:00.000000Z","level":"info","msg":"solve done","iters":412}
//
// Events below the configured level are dropped. A nil *Logger discards
// everything, so call sites never need nil checks.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	now   func() time.Time // overridable for tests
}

// NewLogger returns a logger writing events at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level, now: time.Now}
}

// Enabled reports whether events at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// log writes one event. kv is alternating key, value pairs; a trailing key
// without a value is recorded under "!badkey".
func (l *Logger) log(level Level, msg string, kv ...any) {
	if !l.Enabled(level) {
		return
	}
	// Build with an ordered encoder: ts, level, msg first, then fields in
	// argument order.
	var b []byte
	b = append(b, `{"ts":`...)
	b = appendJSON(b, l.now().UTC().Format(time.RFC3339Nano))
	b = append(b, `,"level":`...)
	b = appendJSON(b, level.String())
	b = append(b, `,"msg":`...)
	b = appendJSON(b, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprintf("%v", kv[i])
		}
		b = append(b, ',')
		b = appendJSON(b, key)
		b = append(b, ':')
		b = appendJSON(b, kv[i+1])
	}
	if len(kv)%2 == 1 {
		b = append(b, `,"!badkey":`...)
		b = appendJSON(b, fmt.Sprintf("%v", kv[len(kv)-1]))
	}
	b = append(b, '}', '\n')
	l.mu.Lock()
	//lint:ignore errdiscard logging is best-effort; a logger that dies on a full disk would take the run down with it
	l.w.Write(b)
	l.mu.Unlock()
}

// appendJSON appends the JSON encoding of v, falling back to its %v string
// for values encoding/json rejects (func values, NaN, ...).
func appendJSON(b []byte, v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		enc, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	return append(b, enc...)
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv...) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv...) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv...) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv...) }

// Logf adapts the logger to the printf-style progress callbacks used across
// the repository (lp.Options.Logf, experiments.Options.Logf). It returns nil
// when the level is disabled so callers can hand the result straight to an
// Options field and keep the "nil means quiet" convention.
func (l *Logger) Logf(level Level) func(format string, args ...any) {
	if !l.Enabled(level) {
		return nil
	}
	return func(format string, args ...any) {
		l.log(level, fmt.Sprintf(format, args...))
	}
}
