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
// payload templates. One stream, rand.NewSource(seed)'s, feeds every draw:
// the tuple, malicious coin, signature, packet and offset draws go through
// rand.Rand, and fill takes one value per 8 filler bytes straight from lag.
type Generator struct {
	cfg GeneratorConfig
	rng *rand.Rand // wraps &lag
	lag lagged
}

// NewGenerator returns a generator with the given config and seed.
func NewGenerator(cfg GeneratorConfig, seed int64) *Generator {
	g := &Generator{cfg: cfg.withDefaults()}
	g.lag.Seed(seed)
	g.rng = rand.New(&g.lag)
	return g
}

// Register length and short lag of math/rand's additive lagged Fibonacci
// source.
const (
	lagLen = 607
	lagTap = 273
)

// lagged replays the Int63 stream of rand.NewSource(seed) from its own block.
// That source computes x[n] = x[n-607] + x[n-273] mod 2^64 and its Int63
// returns x[n] mod 2^63; reduction mod 2^63 commutes with the addition, so
// the Int63 outputs obey the same recurrence, and a block primed with the
// source's first 607 of them reproduces the stream forever
// (TestLaggedMatchesMathRand).
//
// vec holds the current 607 consecutive values, reduced only mod 2^64: bit 63
// is carry, cleared on the way out. pos indexes the next one.
//
// lagged has no Uint64 method, on purpose: the source's bit 63 is not
// replayed, and rand.New would route Rand.Uint64 to it. Without one, every
// rand.Rand method draws through Int63.
type lagged struct {
	vec [lagLen]uint64
	pos int
}

// Seed primes the block with the first 607 Int63 values of
// rand.NewSource(seed).
func (l *lagged) Seed(seed int64) {
	src := rand.NewSource(seed)
	for i := range l.vec {
		l.vec[i] = uint64(src.Int63())
	}
	l.pos = 0
}

// Int63 returns the next value of the stream.
func (l *lagged) Int63() int64 {
	if l.pos == lagLen {
		l.refill()
	}
	x := l.vec[l.pos]
	l.pos++
	return int64(x & (1<<63 - 1))
}

// refill replaces the block by the next 607 values in place. The new vec[k]
// is the old vec[k] plus the value 273 places before it: for k < 273 that is
// still in the old block, at k+334; from k = 273 on it is a new value,
// written k-273 steps earlier in this same pass.
func (l *lagged) refill() {
	v := &l.vec
	for k := 0; k < lagTap; k++ {
		v[k] += v[k+lagLen-lagTap]
	}
	for k := lagTap; k < lagLen; k++ {
		v[k] += v[k-lagTap]
	}
	l.pos = 0
}

// Session produces one session between hosts at the given PoPs, its
// payloads in one new allocation. It is SessionInto on fresh storage.
func (g *Generator) Session(srcPoP, dstPoP int) Session {
	var s Session
	g.SessionInto(&s, srcPoP, dstPoP, make([]byte, g.SessionBytes()))
	return s
}

// SessionBytes is the payload size of one session: the length of buffer
// SessionInto needs.
func (g *Generator) SessionBytes() int {
	return g.cfg.PacketsPerSession * g.cfg.PayloadBytes
}

// SessionInto writes the next session between hosts at the given PoPs
// into s, overwriting every field, and its payloads into buf, which must
// hold SessionBytes bytes. s.Packets' backing array is reused when it is
// large enough, so a caller that recycles s and buf allocates nothing.
// Each packet's payload is a slice of buf capped at its own bytes, so an
// append cannot reach its neighbour's; s aliases buf until both are
// rewritten.
//
// The session is marked Malicious only if a signature was actually
// planted: one longer than the payload cannot be, though the draws that
// chose it are still made so that the rest of the stream does not depend
// on PayloadBytes.
func (g *Generator) SessionInto(s *Session, srcPoP, dstPoP int, buf []byte) {
	tuple := FiveTuple{
		Proto:   ProtoTCP,
		SrcIP:   PoPIP(srcPoP, uint16(1+g.rng.Intn(60000))),
		DstIP:   PoPIP(dstPoP, uint16(1+g.rng.Intn(60000))),
		SrcPort: uint16(1024 + g.rng.Intn(60000)),
		DstPort: 80,
	}
	n, size := g.cfg.PacketsPerSession, g.cfg.PayloadBytes
	pkts := s.Packets[:0]
	if cap(pkts) < n {
		pkts = make([]Packet, 0, n)
	}
	*s = Session{Tuple: tuple, SrcPoP: srcPoP, DstPoP: dstPoP}
	malicious := len(g.cfg.Signatures) > 0 && g.rng.Float64() < g.cfg.MaliciousFraction
	sigID, plantAt := 0, -1
	if malicious {
		sigID = g.rng.Intn(len(g.cfg.Signatures))
		plantAt = g.rng.Intn(n)
	}
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
		pkts = append(pkts, Packet{Tuple: t, Dir: dir, Payload: payload})
	}
	s.Packets = pkts
}

// fillAlphabet is the printable alphabet benign filler is drawn from.
const fillAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ._/"

// fillSym maps a byte of mixed stream bits to a filler symbol: entry i is
// fillAlphabet[i*40>>8]. 256 is not a multiple of 40: of every five
// consecutive symbols the first and third take 7 entries and the other
// three 6, so 16 symbols ("acfhkmpruwz1469.") have probability 7/256 and
// 24 have 6/256, against 1/40 = 6.4/256 uniform (TestFillSymbolTable).
var fillSym = func() (t [256]byte) {
	for i := range t {
		t[i] = fillAlphabet[i*len(fillAlphabet)>>8]
	}
	return t
}()

// fillMix is splitmix64's finalizer. The low bits of an additive
// lagged-Fibonacci stream are linear (bit 0 is an xor shift register), so
// fill mixes every value before its bytes reach a payload.
func fillMix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fill writes benign filler bytes drawn from a printable alphabet so that
// planted signatures are the only detections. Each run of 8 bytes takes one
// stream value, as Int63 returns it, through fillMix; byte k of the mixed
// value, counted from the least significant, picks payload byte k through
// fillSym. A tail of 1–7 bytes takes one more value and drops its unused
// bytes. TestFillMatchesReference holds it to that spec.
//
// The whole runs read the lagged block directly, as many values at a time
// as are left in it, and refill it when it runs out: the values and their
// order are Int63's, without a call per value.
func (g *Generator) fill(b []byte) {
	l := &g.lag
	for len(b) >= 8 {
		if l.pos == lagLen {
			l.refill()
		}
		vec := l.vec[l.pos:]
		if len(vec) > len(b)/8 {
			vec = vec[:len(b)/8]
		}
		for _, v := range vec {
			x := fillMix(v & (1<<63 - 1))
			o := b[:8:8]
			o[0] = fillSym[byte(x)]
			o[1] = fillSym[byte(x>>8)]
			o[2] = fillSym[byte(x>>16)]
			o[3] = fillSym[byte(x>>24)]
			o[4] = fillSym[byte(x>>32)]
			o[5] = fillSym[byte(x>>40)]
			o[6] = fillSym[byte(x>>48)]
			o[7] = fillSym[byte(x>>56)]
			b = b[8:]
		}
		l.pos += len(vec)
	}
	if len(b) > 0 {
		x := fillMix(uint64(l.Int63()))
		for k := range b {
			b[k] = fillSym[byte(x>>(8*k))]
		}
	}
}

// Matrix generates sessionsPerPair[i][j] sessions for every PoP pair,
// returning them in StreamMatrix's deterministic interleaved injection
// order (round-robin across pairs, preserving intra-session order
// downstream).
func (g *Generator) Matrix(sessionsPerPair [][]int) []Session {
	out := make([]Session, 0, max(pairTotal(sessionsPerPair), 0))
	StreamMatrix(sessionsPerPair, func(src, dst int) bool {
		out = append(out, g.Session(src, dst))
		return true
	})
	return out
}

// StreamMatrix is the injection order of a trace: it hands yield the
// (src, dst) PoP pair of each of the sessionsPerPair[src][dst] sessions in
// turn, round-robin across pairs, and stops early when yield returns
// false. Generation is the caller's, so Matrix and a producer that writes
// sessions into recycled storage share one order.
func StreamMatrix(sessionsPerPair [][]int, yield func(src, dst int) bool) {
	n := len(sessionsPerPair)
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = append([]int(nil), sessionsPerPair[i]...)
	}
	// remaining is the plain sum, negative entries included, and is checked
	// only between round-robin sweeps: a negative count can end the trace
	// early, but never in the middle of a sweep.
	for remaining := pairTotal(sessionsPerPair); remaining > 0; {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if counts[a][b] > 0 {
					counts[a][b]--
					remaining--
					if !yield(a, b) {
						return
					}
				}
			}
		}
	}
}

// pairTotal sums a session-count matrix.
func pairTotal(sessionsPerPair [][]int) int {
	total := 0
	for _, row := range sessionsPerPair {
		for _, c := range row {
			total += c
		}
	}
	return total
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
