package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	gen := NewGenerator(GeneratorConfig{
		Signatures: [][]byte{[]byte("EVIL-SIG")}, MaliciousFraction: 0.3,
	}, 9)
	var sessions []Session
	for i := 0; i < 40; i++ {
		sessions = append(sessions, gen.Session(i%5, (i+1)%5))
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sessions) {
		t.Fatalf("sessions = %d, want %d", len(got), len(sessions))
	}
	for i := range got {
		a, b := got[i], sessions[i]
		if a.Tuple != b.Tuple || a.SrcPoP != b.SrcPoP || a.DstPoP != b.DstPoP ||
			a.Malicious != b.Malicious || len(a.Packets) != len(b.Packets) {
			t.Fatalf("session %d metadata changed", i)
		}
		if a.Malicious && a.SignatureID != b.SignatureID {
			t.Fatalf("session %d signature id changed", i)
		}
		for k := range a.Packets {
			if a.Packets[k].Tuple != b.Packets[k].Tuple || a.Packets[k].Dir != b.Packets[k].Dir ||
				!bytes.Equal(a.Packets[k].Payload, b.Packets[k].Payload) {
				t.Fatalf("session %d packet %d changed", i, k)
			}
		}
	}
}

func TestTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: %v, %d sessions", err, len(got))
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("XXXXxxxxxxxx"),
		"truncated":    append([]byte("NWT1"), 0, 0, 0, 5),
		"short header": []byte("NWT1"),
	}
	for name, data := range cases {
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// Random bytes after a valid magic and a small session count: each input
	// must meet the same contract FuzzReadTrace checks.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 8+rng.Intn(200))
		copy(data, "NWT1")
		rng.Read(data[8:])
		binary.BigEndian.PutUint32(data[4:], uint32(rng.Intn(3)))
		checkReadTrace(t, data)
	}
}

// TestReadTraceForgedLengths: a header claiming 2^24-1 sessions and a packet
// claiming a 1 MB payload, each with no bytes behind the claim, allocate what
// the input holds, not what it declares, before failing.
func TestReadTraceForgedLengths(t *testing.T) {
	cases := map[string][]byte{
		"session count":  []byte("NWT1\x00\xff\xff\xff"),
		"payload length": withPayloadLen(twoSessionTrace(t), maxTracePayload),
	}
	for name, data := range cases {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ReadTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Fatalf("%s: forged trace accepted", name)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: %d-byte input allocated %d bytes", name, len(data), alloc)
		}
	}
}

func TestWriteTraceValidatesRanges(t *testing.T) {
	tuple := FiveTuple{Proto: ProtoTCP, SrcIP: PoPIP(1, 2), DstIP: PoPIP(3, 4), SrcPort: 1000, DstPort: 80}
	cases := map[string]Session{
		"out-of-range PoPs":         {SrcPoP: 300, DstPoP: 0},
		"out-of-range signature ID": {SignatureID: 70000},
		"negative signature ID":     {SignatureID: -1},
		"bad direction":             {Tuple: tuple, Packets: []Packet{{Tuple: tuple, Dir: 2}}},
		"tuple":                     {Tuple: tuple, Packets: []Packet{{Tuple: tuple, Dir: Reverse}}},
		"too large":                 {Tuple: tuple, Packets: []Packet{{Tuple: tuple, Payload: make([]byte, maxTracePayload+1)}}},
	}
	for want, s := range cases {
		var buf bytes.Buffer
		err := WriteTrace(&buf, []Session{s})
		if err == nil || !strings.Contains(err.Error(), strings.TrimPrefix(want, "negative ")) {
			t.Fatalf("%s: err = %v", want, err)
		}
	}
}

// twoSessionTrace encodes two generated sessions of two short packets each,
// the second one malicious.
func twoSessionTrace(t testing.TB) []byte {
	gen := NewGenerator(GeneratorConfig{
		PacketsPerSession: 2, PayloadBytes: 8, Signatures: [][]byte{[]byte("EVIL")}, MaliciousFraction: 0.5,
	}, 2)
	var sessions []Session
	for len(sessions) < 2 {
		if s := gen.Session(1, 2); s.Malicious == (len(sessions) == 1) {
			sessions = append(sessions, s)
		}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Offsets in a trace of sessions of 8-byte packets: the header, a session
// header, a packet header and a packet.
const (
	traceHeaderLen   = 4 + 4
	sessionHeaderLen = 3 + 2 + 13 + 2
	packetHeaderLen  = 1 + 4
	packetLen        = packetHeaderLen + 8
)

// withPayloadLen returns trace with its first packet's payload length field
// set to n and everything after the field cut off.
func withPayloadLen(trace []byte, n uint32) []byte {
	at := traceHeaderLen + sessionHeaderLen + 1
	out := append([]byte(nil), trace[:at+4]...)
	binary.BigEndian.PutUint32(out[at:], n)
	return out
}

// traceAllocCap bounds what ReadTrace may allocate on an n-byte input: a
// constant for the reader and the one payload chunk read ahead of its bytes,
// plus a constant per input byte for sessions, packets and payloads, each
// grown by doubling at most.
func traceAllocCap(n int) uint64 { return 64<<10 + 64*uint64(n) }

// checkReadTrace asserts ReadTrace's contract on one input: an error or a
// trace, never a panic; at most traceAllocCap bytes allocated; and a trace
// it accepts re-encodes and decodes to an equal trace.
func checkReadTrace(t *testing.T, data []byte) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got, err := ReadTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&m1)
	if alloc, limit := m1.TotalAlloc-m0.TotalAlloc, traceAllocCap(len(data)); alloc > limit {
		t.Fatalf("ReadTrace allocated %d bytes on a %d-byte input (cap %d)", alloc, len(data), limit)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("ReadTrace returned %d sessions with error %v", len(got), err)
		}
		return
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, got); err != nil {
		t.Fatalf("accepted trace does not re-encode: %v", err)
	}
	again, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("re-encoded trace rejected: %v", err)
	}
	if diff := traceDiff(got, again); diff != "" {
		t.Fatalf("round trip changed the trace: %s", diff)
	}
}

// traceDiff describes the first difference between two traces, or returns "".
func traceDiff(a, b []Session) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d sessions, then %d", len(a), len(b))
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Tuple != y.Tuple || x.SrcPoP != y.SrcPoP || x.DstPoP != y.DstPoP || x.Malicious != y.Malicious ||
			x.SignatureID != y.SignatureID || len(x.Packets) != len(y.Packets) {
			return fmt.Sprintf("session %d: %+v, then %+v", i, *x, *y)
		}
		for k, p := range x.Packets {
			q := y.Packets[k]
			if p.Tuple != q.Tuple || p.Dir != q.Dir || !bytes.Equal(p.Payload, q.Payload) {
				return fmt.Sprintf("session %d packet %d: %+v, then %+v", i, k, p, q)
			}
		}
	}
	return ""
}

// FuzzReadTrace feeds arbitrary bytes to the trace decoder: whatever the
// input, checkReadTrace's contract holds. `go test` runs the seed corpus;
// `go test -fuzz=FuzzReadTrace` explores.
func FuzzReadTrace(f *testing.F) {
	// Seeds: a two-session trace and its every cut at a field boundary; the
	// same with a packet direction of 2 and with a payload length one past
	// the limit; and a header claiming 2^24-1 sessions with none behind it.
	trace := twoSessionTrace(f)
	cuts := []int{0, 4, traceHeaderLen}
	for off, s := traceHeaderLen, 0; s < 2; s++ {
		for _, n := range []int{1, 1, 1, 2, 13, 2} {
			off += n
			cuts = append(cuts, off)
		}
		for p := 0; p < 2; p++ {
			for _, n := range []int{1, 4, 8} {
				off += n
				cuts = append(cuts, off)
			}
		}
	}
	if cuts[len(cuts)-1] != len(trace) {
		f.Fatalf("field boundaries end at %d, trace is %d bytes", cuts[len(cuts)-1], len(trace))
	}
	for _, c := range cuts {
		f.Add(trace[:c])
	}
	badDir := append([]byte(nil), trace...)
	badDir[traceHeaderLen+sessionHeaderLen+packetLen] = 2
	f.Add(badDir)
	f.Add(withPayloadLen(trace, maxTracePayload+1))
	f.Add([]byte("NWT1\x00\xff\xff\xff"))

	f.Fuzz(checkReadTrace)
}
