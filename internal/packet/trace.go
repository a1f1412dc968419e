package packet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace serialization: a compact binary format for session traces so that
// generated workloads can be stored and replayed byte-identically (the
// repository's analog of the paper's seed packet traces [18]).
//
// Layout (all integers big-endian):
//
//	magic "NWT1" | u32 sessionCount
//	per session: u8 srcPoP | u8 dstPoP | u8 flags(bit0 malicious)
//	             | u16 signatureID | 13-byte forward tuple | u16 packetCount
//	per packet:  u8 dir | u32 payloadLen | payload
var traceMagic = [4]byte{'N', 'W', 'T', '1'}

// Limits ReadTrace enforces and WriteTrace therefore refuses to exceed.
const (
	maxTraceSessions = 1 << 24
	maxTracePayload  = 1 << 20
)

// payloadChunk is the most ReadTrace allocates for a payload before its
// bytes arrive; longer payloads grow by doubling as they are read.
const payloadChunk = 4 << 10

// WriteTrace serializes sessions to w. It returns an error rather than write
// a trace that ReadTrace would reject or read back different: a PoP outside
// a byte, a SignatureID outside uint16, more than 65535 packets, a Dir other
// than Forward or Reverse, a packet tuple that is not the session's tuple in
// its direction, or a limit above exceeded.
func WriteTrace(w io.Writer, sessions []Session) error {
	if len(sessions) > maxTraceSessions {
		return fmt.Errorf("packet: %d sessions (max %d)", len(sessions), maxTraceSessions)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(sessions)))
	bw.Write(u32[:])
	for i := range sessions {
		s := &sessions[i]
		if s.SrcPoP > 255 || s.DstPoP > 255 || s.SrcPoP < 0 || s.DstPoP < 0 {
			return fmt.Errorf("packet: session %d has out-of-range PoPs (%d, %d)", i, s.SrcPoP, s.DstPoP)
		}
		if s.SignatureID < 0 || s.SignatureID > 65535 {
			return fmt.Errorf("packet: session %d has out-of-range signature ID %d (max 65535)", i, s.SignatureID)
		}
		if len(s.Packets) > 65535 {
			return fmt.Errorf("packet: session %d has %d packets (max 65535)", i, len(s.Packets))
		}
		flags := byte(0)
		if s.Malicious {
			flags |= 1
		}
		bw.WriteByte(byte(s.SrcPoP))
		bw.WriteByte(byte(s.DstPoP))
		bw.WriteByte(flags)
		var u16 [2]byte
		binary.BigEndian.PutUint16(u16[:], uint16(s.SignatureID))
		bw.Write(u16[:])
		writeTuple(bw, s.Tuple)
		binary.BigEndian.PutUint16(u16[:], uint16(len(s.Packets)))
		bw.Write(u16[:])
		for k, p := range s.Packets {
			if p.Dir > Reverse {
				return fmt.Errorf("packet: session %d packet %d: bad direction %d", i, k, p.Dir)
			}
			if want := directed(s.Tuple, p.Dir); p.Tuple != want {
				return fmt.Errorf("packet: session %d packet %d: tuple %v, want %v", i, k, p.Tuple, want)
			}
			if len(p.Payload) > maxTracePayload {
				return fmt.Errorf("packet: session %d packet %d: payload %d too large", i, k, len(p.Payload))
			}
			bw.WriteByte(byte(p.Dir))
			binary.BigEndian.PutUint32(u32[:], uint32(len(p.Payload)))
			bw.Write(u32[:])
			if _, err := bw.Write(p.Payload); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeTuple(w *bufio.Writer, t FiveTuple) {
	var b [13]byte
	b[0] = t.Proto
	binary.BigEndian.PutUint32(b[1:], t.SrcIP)
	binary.BigEndian.PutUint32(b[5:], t.DstIP)
	binary.BigEndian.PutUint16(b[9:], t.SrcPort)
	binary.BigEndian.PutUint16(b[11:], t.DstPort)
	w.Write(b[:])
}

func readTuple(r io.Reader) (FiveTuple, error) {
	var b [13]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return FiveTuple{}, err
	}
	return FiveTuple{
		Proto:   b[0],
		SrcIP:   binary.BigEndian.Uint32(b[1:]),
		DstIP:   binary.BigEndian.Uint32(b[5:]),
		SrcPort: binary.BigEndian.Uint16(b[9:]),
		DstPort: binary.BigEndian.Uint16(b[11:]),
	}, nil
}

// ReadTrace parses a trace written by WriteTrace. Malformed input returns
// an error rather than panicking, regardless of content.
func ReadTrace(r io.Reader) ([]Session, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("packet: trace header: %w", err)
	}
	if magic != traceMagic {
		return nil, errors.New("packet: not a trace file (bad magic)")
	}
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint32(u32[:])
	if count > maxTraceSessions {
		return nil, fmt.Errorf("packet: implausible session count %d", count)
	}
	// count is a claim, not yet bytes: sessions grow as they parse.
	var sessions []Session
	var u16 [2]byte
	for i := uint32(0); i < count; i++ {
		var hdr [3]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, fmt.Errorf("packet: session %d header: %w", i, err)
		}
		s := Session{SrcPoP: int(hdr[0]), DstPoP: int(hdr[1]), Malicious: hdr[2]&1 != 0}
		if _, err := io.ReadFull(br, u16[:]); err != nil {
			return nil, err
		}
		s.SignatureID = int(binary.BigEndian.Uint16(u16[:]))
		tuple, err := readTuple(br)
		if err != nil {
			return nil, err
		}
		s.Tuple = tuple
		if _, err := io.ReadFull(br, u16[:]); err != nil {
			return nil, err
		}
		np := int(binary.BigEndian.Uint16(u16[:]))
		for k := 0; k < np; k++ {
			dirB, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if dirB > 1 {
				return nil, fmt.Errorf("packet: session %d packet %d: bad direction %d", i, k, dirB)
			}
			if _, err := io.ReadFull(br, u32[:]); err != nil {
				return nil, err
			}
			n := binary.BigEndian.Uint32(u32[:])
			if n > maxTracePayload {
				return nil, fmt.Errorf("packet: session %d packet %d: payload %d too large", i, k, n)
			}
			payload, err := readPayload(br, int(n))
			if err != nil {
				return nil, err
			}
			dir := Direction(dirB)
			s.Packets = append(s.Packets, Packet{Tuple: directed(s.Tuple, dir), Dir: dir, Payload: payload})
		}
		sessions = append(sessions, s)
	}
	return sessions, nil
}

// directed returns a session's forward tuple as seen by a packet in dir.
func directed(forward FiveTuple, dir Direction) FiveTuple {
	if dir == Reverse {
		return forward.Reverse()
	}
	return forward
}

// readPayload reads an n-byte payload into a buffer that grows as the bytes
// arrive, from payloadChunk by doubling, so a truncated input costs about
// what it holds rather than the length it declares.
func readPayload(r io.Reader, n int) ([]byte, error) {
	p := make([]byte, min(n, payloadChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, p[have:]); err != nil {
			return nil, err
		}
		if len(p) == n {
			return p, nil
		}
		have = len(p)
		p = append(p, make([]byte, min(n-have, have))...)
	}
}
