// Package packet models IP 5-tuples, packets and session traces for the
// emulation substrate: a from-scratch stand-in for the Scapy-generated,
// BitTwist-injected traces of the paper's Emulab evaluation (§8.1), with
// deterministic payload synthesis and plantable attack artifacts.
package packet

import (
	"fmt"
	"math/rand"
)

// Proto numbers used by the generator.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// FiveTuple identifies a flow direction: protocol, addresses and ports.
type FiveTuple struct {
	Proto            uint8
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Proto: t.Proto, SrcIP: t.DstIP, DstIP: t.SrcIP, SrcPort: t.DstPort, DstPort: t.SrcPort}
}

// Canonical returns a direction-independent form of the tuple: the
// (IP, port) endpoint pair is ordered so that both directions of a session
// canonicalize identically (§7.2's bidirectional pinning trick [37]).
func (t FiveTuple) Canonical() FiveTuple {
	if t.SrcIP < t.DstIP || (t.SrcIP == t.DstIP && t.SrcPort <= t.DstPort) {
		return t
	}
	return t.Reverse()
}

// IsCanonical reports whether the tuple is already in canonical form.
func (t FiveTuple) IsCanonical() bool { return t == t.Canonical() }

// String renders the tuple in a tcpdump-like form.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%d %s:%d > %s:%d", t.Proto, ipString(t.SrcIP), t.SrcPort, ipString(t.DstIP), t.DstPort)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Direction labels which side of a session a packet belongs to.
type Direction uint8

// Directions.
const (
	Forward Direction = iota // initiator → responder
	Reverse                  // responder → initiator
)

// Packet is one packet of a session trace.
type Packet struct {
	Tuple   FiveTuple
	Dir     Direction
	Payload []byte
}

// Session is an ordered bidirectional packet exchange between two hosts.
type Session struct {
	// Tuple is the forward-direction (initiator's) tuple.
	Tuple FiveTuple
	// SrcPoP and DstPoP are the ingress/egress PoPs of the initiator and
	// responder.
	SrcPoP, DstPoP int
	// Packets in injection order (the supernode preserves intra-session
	// ordering, §8.1).
	Packets []Packet
	// Malicious marks sessions carrying a planted signature.
	Malicious bool
	// SignatureID is the planted rule ID when Malicious.
	SignatureID int
}

// PoPIP returns a host address inside the /16 assigned to a PoP:
// 10.pop.x.y. The mapping is the generator's convention for locating a
// host's PoP from its address.
func PoPIP(pop int, host uint16) uint32 {
	return 10<<24 | uint32(pop&0xff)<<16 | uint32(host)
}

// PoPOf recovers the PoP index from an address produced by PoPIP.
func PoPOf(ip uint32) int { return int(ip >> 16 & 0xff) }

// GeneratorConfig controls synthetic session generation.
type GeneratorConfig struct {
	// PacketsPerSession is the number of packets per session (default 6,
	// alternating directions).
	PacketsPerSession int
	// PayloadBytes is the payload size per packet (default 256).
	PayloadBytes int
	// MaliciousFraction is the probability a session carries a planted
	// signature string (default 0.01).
	MaliciousFraction float64
	// Signatures lists the byte strings that can be planted; required when
	// MaliciousFraction > 0.
	Signatures [][]byte
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.PacketsPerSession == 0 {
		c.PacketsPerSession = 6
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 256
	}
	if c.MaliciousFraction == 0 {
		c.MaliciousFraction = 0.01
	}
	return c
}

// Generator synthesizes deterministic session traces for a traffic matrix,
// playing the role of the paper's offline trace generator plus the M57
// payload templates.
type Generator struct {
	cfg GeneratorConfig
	// rng and src are one random stream: rng wraps src and holds no state of
	// its own, so draws through either interleave as if all went through rng.
	// fill draws from src directly to skip rng's per-call layers.
	rng *rand.Rand
	src rand.Source
}

// NewGenerator returns a generator with the given config and seed.
func NewGenerator(cfg GeneratorConfig, seed int64) *Generator {
	src := rand.NewSource(seed)
	return &Generator{cfg: cfg.withDefaults(), rng: rand.New(src), src: src}
}

// Session produces one session between hosts at the given PoPs. It is
// marked Malicious only if a signature was actually planted: one longer
// than the payload cannot be, though the draws that chose it are still made
// so that the rest of the stream does not depend on PayloadBytes.
func (g *Generator) Session(srcPoP, dstPoP int) Session {
	tuple := FiveTuple{
		Proto:   ProtoTCP,
		SrcIP:   PoPIP(srcPoP, uint16(1+g.rng.Intn(60000))),
		DstIP:   PoPIP(dstPoP, uint16(1+g.rng.Intn(60000))),
		SrcPort: uint16(1024 + g.rng.Intn(60000)),
		DstPort: 80,
	}
	n, size := g.cfg.PacketsPerSession, g.cfg.PayloadBytes
	s := Session{Tuple: tuple, SrcPoP: srcPoP, DstPoP: dstPoP, Packets: make([]Packet, 0, n)}
	malicious := len(g.cfg.Signatures) > 0 && g.rng.Float64() < g.cfg.MaliciousFraction
	sigID, plantAt := 0, -1
	if malicious {
		sigID = g.rng.Intn(len(g.cfg.Signatures))
		plantAt = g.rng.Intn(n)
	}
	// One allocation holds every payload of the session; each packet's slice
	// is capped at its own bytes so an append cannot reach its neighbour's.
	buf := make([]byte, n*size)
	for i := 0; i < n; i++ {
		dir := Direction(i % 2)
		t := tuple
		if dir == Reverse {
			t = tuple.Reverse()
		}
		payload := buf[i*size : (i+1)*size : (i+1)*size]
		g.fill(payload)
		if i == plantAt {
			sig := g.cfg.Signatures[sigID]
			if len(sig) <= len(payload) {
				off := g.rng.Intn(len(payload) - len(sig) + 1)
				copy(payload[off:], sig)
				s.Malicious, s.SignatureID = true, sigID
			}
		}
		s.Packets = append(s.Packets, Packet{Tuple: t, Dir: dir, Payload: payload})
	}
	return s
}

// fill writes benign filler bytes drawn from a printable alphabet so that
// planted signatures are the only detections. Each byte is what
// rng.Intn(len(alphabet)) would have drawn — rand.Rand.Int31n spelled out
// for a constant, non-power-of-two n — so traces are byte-identical to the
// ones the rng.Intn loop produced (TestFillMatchesRandIntn).
func (g *Generator) fill(b []byte) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ._/"
	const n = int32(len(alphabet))
	const limit = int32(1<<31 - 1 - (1<<31)%uint32(n)) // Int31n's rejection bound
	for i := range b {
		v := int32(g.src.Int63() >> 32)
		for v > limit {
			v = int32(g.src.Int63() >> 32)
		}
		b[i] = alphabet[v%n]
	}
}

// Matrix generates sessionsPerPair[i][j] sessions for every PoP pair,
// returning them in a deterministic interleaved injection order (round-robin
// across pairs, preserving intra-session order downstream).
func (g *Generator) Matrix(sessionsPerPair [][]int) []Session {
	var out []Session
	n := len(sessionsPerPair)
	remaining := 0
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = append([]int(nil), sessionsPerPair[i]...)
		for _, c := range counts[i] {
			remaining += c
		}
	}
	for remaining > 0 {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if counts[a][b] > 0 {
					counts[a][b]--
					remaining--
					out = append(out, g.Session(a, b))
				}
			}
		}
	}
	return out
}

// ScanSessions synthesizes a scanner: a single source at srcPoP contacting
// distinct destination hosts spread across the given PoPs, one short session
// each — the workload for the scan-detection experiments.
func (g *Generator) ScanSessions(srcPoP int, dstPoPs []int, contacts int) []Session {
	srcIP := PoPIP(srcPoP, uint16(1+g.rng.Intn(60000)))
	srcPort := uint16(1024 + g.rng.Intn(60000))
	var out []Session
	for i := 0; i < contacts; i++ {
		dstPoP := dstPoPs[i%len(dstPoPs)]
		tuple := FiveTuple{
			Proto:   ProtoTCP,
			SrcIP:   srcIP,
			DstIP:   PoPIP(dstPoP, uint16(1+i)),
			SrcPort: srcPort,
			DstPort: uint16(1 + g.rng.Intn(1024)),
		}
		payload := make([]byte, 40)
		g.fill(payload)
		out = append(out, Session{
			Tuple:   tuple,
			SrcPoP:  srcPoP,
			DstPoP:  dstPoP,
			Packets: []Packet{{Tuple: tuple, Dir: Forward, Payload: payload}},
		})
	}
	return out
}
