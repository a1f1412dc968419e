package shim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"nwids/internal/packet"
)

// readAllocCap is the most one ReadPacket call may allocate whatever length
// the frame declares: the payload buffer, bounded by maxPayload, plus slack
// for the decoder's own small objects and runtime bookkeeping.
const readAllocCap = maxPayload + 64<<10

// frameWithLen returns a header declaring payloadLen followed by body.
func frameWithLen(payloadLen uint32, body []byte) []byte {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:], payloadLen)
	hdr[4] = packet.ProtoTCP
	return append(hdr[:], body...)
}

// FuzzReadPacket feeds arbitrary byte streams to the tunnel decoder, the
// one reader of bytes that arrive from another process. Whatever the input:
// it must not panic; one call must not allocate more than readAllocCap,
// whatever payload length the header declares; io.EOF must mean a clean end
// of stream — nothing of a next frame was present — and never a frame cut
// short; and every frame it accepts must re-encode to exactly the bytes it
// was decoded from and decode again to the same packet. `go test` runs the
// seed corpus; `go test -fuzz=FuzzReadPacket` explores.
func FuzzReadPacket(f *testing.F) {
	// Seeds: well-formed frames of generated traffic, singly and as a
	// stream; the same truncated inside the header, at the header/payload
	// boundary and inside the payload; zero-length payloads; and headers
	// declaring more than the limit, the limit itself with a short body,
	// and the largest representable length.
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 4, PayloadBytes: 48}, 3)
	var stream bytes.Buffer
	for _, p := range gen.Session(1, 2).Packets {
		var one bytes.Buffer
		if err := WritePacket(&one, p); err != nil {
			f.Fatal(err)
		}
		stream.Write(one.Bytes())
		f.Add(one.Bytes())
		for _, cut := range []int{1, headerLen - 1, headerLen, headerLen + 1, one.Len() - 1} {
			f.Add(one.Bytes()[:cut])
		}
	}
	f.Add(stream.Bytes())
	f.Add([]byte{})
	f.Add(frameWithLen(0, nil))
	f.Add(frameWithLen(0, []byte("trailing")))
	f.Add(frameWithLen(maxPayload+1, []byte("x")))
	f.Add(frameWithLen(maxPayload, []byte("short body")))
	f.Add(frameWithLen(^uint32(0), nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			before := r.Len()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p, err := ReadPacket(r)
			runtime.ReadMemStats(&m1)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > readAllocCap {
				t.Fatalf("ReadPacket allocated %d bytes (cap %d) on a %d-byte input", got, readAllocCap, before)
			}
			if err != nil {
				if p.Payload != nil || p.Tuple != (packet.FiveTuple{}) {
					t.Fatalf("ReadPacket returned %v together with a non-zero packet %+v", err, p)
				}
				if errors.Is(err, io.EOF) && before != 0 {
					t.Fatalf("ReadPacket reported a clean EOF with %d bytes of a frame pending", before)
				}
				return
			}
			consumed := data[len(data)-before : len(data)-r.Len()]
			if len(p.Payload) > maxPayload {
				t.Fatalf("accepted a %d-byte payload, limit %d", len(p.Payload), maxPayload)
			}
			var re bytes.Buffer
			if err := WritePacket(&re, p); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), consumed) {
				t.Fatalf("accepted frame does not re-encode to its own bytes:\n in %x\nout %x", consumed, re.Bytes())
			}
			again, err := ReadPacket(&re)
			if err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
			if again.Tuple != p.Tuple || again.Dir != p.Dir || !bytes.Equal(again.Payload, p.Payload) {
				t.Fatalf("round trip changed the packet: %+v → %+v", p, again)
			}
		}
	})
}
