package packet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalSymmetry(t *testing.T) {
	f := func(proto uint8, sip, dip uint32, sp, dp uint16) bool {
		tup := FiveTuple{Proto: proto, SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp}
		return tup.Canonical() == tup.Reverse().Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	f := func(proto uint8, sip, dip uint32, sp, dp uint16) bool {
		tup := FiveTuple{Proto: proto, SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp}
		c := tup.Canonical()
		return c.Canonical() == c && c.IsCanonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseInvolution(t *testing.T) {
	tup := FiveTuple{Proto: ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	if tup.Reverse().Reverse() != tup {
		t.Fatal("Reverse is not an involution")
	}
}

func TestPoPIPRoundTrip(t *testing.T) {
	for pop := 0; pop < 256; pop += 17 {
		ip := PoPIP(pop, 42)
		if PoPOf(ip) != pop {
			t.Fatalf("PoPOf(PoPIP(%d)) = %d", pop, PoPOf(ip))
		}
	}
}

func TestTupleString(t *testing.T) {
	tup := FiveTuple{Proto: 6, SrcIP: PoPIP(1, 2), DstIP: PoPIP(3, 4), SrcPort: 1000, DstPort: 80}
	if got := tup.String(); got != "6 10.1.0.2:1000 > 10.3.0.4:80" {
		t.Fatalf("String = %q", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := GeneratorConfig{Signatures: [][]byte{[]byte("evil")}, MaliciousFraction: 0.5}
	a := NewGenerator(cfg, 7).Session(1, 2)
	b := NewGenerator(cfg, 7).Session(1, 2)
	if a.Tuple != b.Tuple || len(a.Packets) != len(b.Packets) {
		t.Fatal("same seed must reproduce the session")
	}
	for i := range a.Packets {
		if !bytes.Equal(a.Packets[i].Payload, b.Packets[i].Payload) {
			t.Fatal("payloads differ between identical seeds")
		}
	}
}

func TestGeneratorSessionShape(t *testing.T) {
	g := NewGenerator(GeneratorConfig{PacketsPerSession: 8, PayloadBytes: 128}, 1)
	s := g.Session(3, 5)
	if len(s.Packets) != 8 {
		t.Fatalf("packets = %d", len(s.Packets))
	}
	if s.SrcPoP != 3 || s.DstPoP != 5 {
		t.Fatal("PoPs wrong")
	}
	if PoPOf(s.Tuple.SrcIP) != 3 || PoPOf(s.Tuple.DstIP) != 5 {
		t.Fatal("tuple addresses not in PoP ranges")
	}
	for i, p := range s.Packets {
		if len(p.Payload) != 128 {
			t.Fatalf("payload size %d", len(p.Payload))
		}
		wantDir := Direction(i % 2)
		if p.Dir != wantDir {
			t.Fatalf("packet %d dir %v", i, p.Dir)
		}
		want := s.Tuple
		if wantDir == Reverse {
			want = s.Tuple.Reverse()
		}
		if p.Tuple != want {
			t.Fatalf("packet %d tuple mismatch", i)
		}
	}
}

func TestGeneratorPlantsSignatures(t *testing.T) {
	sig := []byte("MALWARE-SIGNATURE")
	g := NewGenerator(GeneratorConfig{Signatures: [][]byte{sig}, MaliciousFraction: 1.0}, 2)
	s := g.Session(0, 1)
	if !s.Malicious {
		t.Fatal("session should be malicious at fraction 1.0")
	}
	found := false
	for _, p := range s.Packets {
		if bytes.Contains(p.Payload, sig) {
			found = true
		}
	}
	if !found {
		t.Fatal("planted signature not present in any payload")
	}
}

// refFill is fill's contract written out the plain way: per 8 bytes one
// Int63 value from rng (the stream value masked to 63 bits), mixed by
// splitmix64's finalizer; byte k of the mixed value, from the least
// significant, maps to alphabet[b*40>>8]. A tail takes a whole value.
func refFill(rng *rand.Rand, payload []byte) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ._/"
	for j := 0; j < len(payload); j += 8 {
		z := uint64(rng.Int63())
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for k := 0; k < 8 && j+k < len(payload); k++ {
			b := int(z >> (8 * k) & 0xff)
			payload[j+k] = alphabet[b*len(alphabet)>>8]
		}
	}
}

// TestFillMatchesReference pins Session's bytes and draw order to a plain
// spec over a rand.Rand on the same seed, asked for every value in the
// order Session asks: three tuple draws, the malicious coin, signature and
// packet choice, then per packet refFill's values and the plant offset.
// Sizes cover a tail-only payload (6), whole values (64, 256, 1400) and a
// tail after whole values (61); the last signature does not fit 6 or 61 B.
func TestFillMatchesReference(t *testing.T) {
	sigs := [][]byte{[]byte("UPX!"), []byte("MALWARE-SIGNATURE"), []byte("a signature longer than a sixty-four byte payload can possibly hold, by a margin")}
	for _, size := range []int{6, 61, 64, 256, 1400} {
		cfg := GeneratorConfig{PacketsPerSession: 4, PayloadBytes: size, MaliciousFraction: 0.5, Signatures: sigs}
		g := NewGenerator(cfg, 99)
		rng := rand.New(rand.NewSource(99))
		for n := 0; n < 200; n++ {
			got := g.Session(1, 2)
			want := Session{SrcPoP: 1, DstPoP: 2, Tuple: FiveTuple{
				Proto:   ProtoTCP,
				SrcIP:   PoPIP(1, uint16(1+rng.Intn(60000))),
				DstIP:   PoPIP(2, uint16(1+rng.Intn(60000))),
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: 80,
			}}
			sigID, plantAt := 0, -1
			if rng.Float64() < cfg.MaliciousFraction {
				sigID = rng.Intn(len(sigs))
				plantAt = rng.Intn(cfg.PacketsPerSession)
			}
			for i := 0; i < cfg.PacketsPerSession; i++ {
				payload := make([]byte, size)
				refFill(rng, payload)
				if i == plantAt && len(sigs[sigID]) <= size {
					copy(payload[rng.Intn(size-len(sigs[sigID])+1):], sigs[sigID])
					want.Malicious, want.SignatureID = true, sigID
				}
				if !bytes.Equal(got.Packets[i].Payload, payload) {
					t.Fatalf("size %d session %d packet %d:\n got %q\nwant %q", size, n, i, got.Packets[i].Payload, payload)
				}
			}
			if got.Tuple != want.Tuple || got.Malicious != want.Malicious || got.SignatureID != want.SignatureID {
				t.Fatalf("size %d session %d: got %v malicious=%v sig=%d, want %v malicious=%v sig=%d", size, n,
					got.Tuple, got.Malicious, got.SignatureID, want.Tuple, want.Malicious, want.SignatureID)
			}
		}
	}
}

// TestFillSymbolTable: every entry of fillSym is an alphabet symbol, and
// the table gives 16 symbols 7 of its 256 entries and the other 24 six,
// the bias fill's doc comment states.
func TestFillSymbolTable(t *testing.T) {
	counts := map[byte]int{}
	for i, c := range fillSym {
		if !strings.ContainsRune(fillAlphabet, rune(c)) {
			t.Fatalf("fillSym[%d] = %q is not in the alphabet", i, c)
		}
		counts[c]++
	}
	byCount := map[int]int{}
	for _, n := range counts {
		byCount[n]++
	}
	if len(counts) != len(fillAlphabet) || byCount[7] != 16 || byCount[6] != 24 {
		t.Fatalf("%d symbols; symbols per entry count %v, want 16 at 7 and 24 at 6", len(counts), byCount)
	}
}

// TestLaggedMatchesMathRand pins lagged to the source it replays: Int63 for
// Int63 against rand.NewSource over many refills, on seeds that exercise the
// source's folding of the seed mod 2^31-1 (0 and 2^31-1 both fold to its
// default, negative seeds wrap); Seed re-priming mid-stream; and rand.Rand
// over lagged against rand.Rand over the source through the methods Session
// and ScanSessions use and one that they do not.
func TestLaggedMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 1, 1 << 31, -1 << 40, 1 << 62}
	const draws = 1_000_000
	for _, seed := range seeds {
		var l lagged
		l.Seed(seed)
		ref := rand.NewSource(seed)
		for i := 0; i < draws; i++ {
			if got, want := l.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, got, want)
			}
		}
	}

	var l lagged
	l.Seed(5)
	for i := 0; i < 1000; i++ {
		l.Int63()
	}
	rand.New(&l).Seed(6)
	ref := rand.NewSource(6)
	for i := 0; i < 2*lagLen; i++ {
		if got, want := l.Int63(), ref.Int63(); got != want {
			t.Fatalf("after re-seeding, draw %d: Int63 = %d, want %d", i, got, want)
		}
	}

	for _, seed := range seeds {
		var l lagged
		l.Seed(seed)
		got, want := rand.New(&l), rand.New(rand.NewSource(seed))
		for i := 0; i < 100_000; i++ {
			var a, b int64
			switch i % 4 {
			case 0:
				n := 1 + i%60000
				a, b = int64(got.Intn(n)), int64(want.Intn(n))
			case 1:
				a, b = int64(math.Float64bits(got.Float64())), int64(math.Float64bits(want.Float64()))
			case 2:
				n := int64(i)<<33 + 3 // above Int31n's range, never a power of two
				a, b = got.Int63n(n), want.Int63n(n)
			case 3:
				a, b = int64(got.Int31n(40)), int64(want.Int31n(40))
			}
			if a != b {
				t.Fatalf("seed %d call %d (kind %d): %d, want %d", seed, i, i%4, a, b)
			}
		}
	}
}

// BenchmarkSession times the generator per session at the payload sizes of
// the pkt-small, default and pkt-large workloads; bytes are payload bytes.
// alloc is Session, which allocates each session afresh; reuse is
// SessionInto over one recycled session and buffer, as the drivers'
// producer runs it, and allocates nothing.
func BenchmarkSession(b *testing.B) {
	sigs := [][]byte{[]byte("UPX!"), []byte("MALWARE-SIGNATURE")}
	for _, size := range []int{6, 256, 1400} {
		cfg := GeneratorConfig{PayloadBytes: size, Signatures: sigs}
		b.Run(fmt.Sprintf("%dB/alloc", size), func(b *testing.B) {
			g := NewGenerator(cfg, 1)
			b.SetBytes(int64(g.SessionBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sessionSink = g.Session(i%11, (i+1)%11)
			}
		})
		b.Run(fmt.Sprintf("%dB/reuse", size), func(b *testing.B) {
			g := NewGenerator(cfg, 1)
			buf := make([]byte, g.SessionBytes())
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.SessionInto(&sessionSink, i%11, (i+1)%11, buf)
			}
		})
	}
}

// sessionSink keeps BenchmarkSession's results live.
var sessionSink Session

// TestSessionIntoAllocFree: once a recycled session's packet slice has
// grown, SessionInto allocates nothing, malicious sessions included.
func TestSessionIntoAllocFree(t *testing.T) {
	g := NewGenerator(GeneratorConfig{PayloadBytes: 1400, MaliciousFraction: 0.5,
		Signatures: [][]byte{[]byte("UPX!"), []byte("MALWARE-SIGNATURE")}}, 3)
	var s Session
	buf := make([]byte, g.SessionBytes())
	g.SessionInto(&s, 0, 1, buf)
	if n := testing.AllocsPerRun(200, func() { g.SessionInto(&s, 2, 3, buf) }); n != 0 {
		t.Fatalf("SessionInto allocates %v times per session", n)
	}
}

// TestMaliciousMeansPlanted: a session is Malicious exactly when its
// signature is in one of its payloads. At 6 B most signatures do not fit and
// their sessions must stay unmarked; at 64 B every chosen one is planted.
func TestMaliciousMeansPlanted(t *testing.T) {
	sigs := [][]byte{[]byte("UPX!"), []byte("JOIN #"), []byte("masscan/1.0"), []byte("MALWARE-SIGNATURE")}
	for _, size := range []int{6, 64} {
		g := NewGenerator(GeneratorConfig{PayloadBytes: size, MaliciousFraction: 1, Signatures: sigs}, 12)
		marked := 0
		for n := 0; n < 400; n++ {
			s := g.Session(0, 1)
			planted := false
			for _, p := range s.Packets {
				for id, sig := range sigs {
					if bytes.Contains(p.Payload, sig) {
						planted = true
						if !s.Malicious || s.SignatureID != id {
							t.Fatalf("size %d session %d carries %q but Malicious=%v SignatureID=%d", size, n, sig, s.Malicious, s.SignatureID)
						}
					}
				}
			}
			if s.Malicious && !planted {
				t.Fatalf("size %d session %d marked Malicious (signature %d) with nothing planted", size, n, s.SignatureID)
			}
			if !s.Malicious && s.SignatureID != 0 {
				t.Fatalf("size %d session %d: SignatureID %d on an unmarked session", size, n, s.SignatureID)
			}
			if s.Malicious {
				marked++
			}
		}
		// Two of the four signatures fit 6 B; all fit 64 B.
		if want := map[int]bool{6: marked > 100 && marked < 300, 64: marked == 400}[size]; !want {
			t.Fatalf("size %d: %d of 400 sessions marked", size, marked)
		}
	}
}

func TestGeneratorBenignHasNoSignature(t *testing.T) {
	sig := []byte("MALWARE-SIGNATURE")
	g := NewGenerator(GeneratorConfig{Signatures: [][]byte{sig}, MaliciousFraction: -1}, 3)
	for i := 0; i < 50; i++ {
		s := g.Session(0, 1)
		if s.Malicious {
			t.Fatal("malicious at fraction ~0")
		}
		for _, p := range s.Packets {
			if bytes.Contains(p.Payload, sig) {
				t.Fatal("benign payload contains the signature")
			}
		}
	}
}

func TestGeneratorMatrix(t *testing.T) {
	g := NewGenerator(GeneratorConfig{}, 4)
	counts := [][]int{
		{0, 2, 1},
		{0, 0, 3},
		{1, 0, 0},
	}
	out := g.Matrix(counts)
	if len(out) != 7 {
		t.Fatalf("sessions = %d, want 7", len(out))
	}
	got := map[[2]int]int{}
	for _, s := range out {
		got[[2]int{s.SrcPoP, s.DstPoP}]++
	}
	for a := range counts {
		for b := range counts[a] {
			if got[[2]int{a, b}] != counts[a][b] {
				t.Fatalf("pair (%d,%d): got %d want %d", a, b, got[[2]int{a, b}], counts[a][b])
			}
		}
	}
	// Round-robin interleaving: the first sessions cycle across pairs.
	if out[0].SrcPoP == out[1].SrcPoP && out[0].DstPoP == out[1].DstPoP {
		t.Fatal("matrix generation should interleave pairs")
	}
}

// referenceMatrix is Matrix as it was written before it collected
// StreamMatrix: an eager round-robin loop appending to one slice.
func referenceMatrix(g *Generator, sessionsPerPair [][]int) []Session {
	n := len(sessionsPerPair)
	remaining := 0
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = append([]int(nil), sessionsPerPair[i]...)
		for _, c := range counts[i] {
			remaining += c
		}
	}
	out := make([]Session, 0, max(remaining, 0))
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

// TestStreamMatrixMatchesMatrix: for several seeds and count matrices
// (zero, negative and empty ones included), Matrix, SessionInto over
// StreamMatrix's order into recycled storage and the eager reference
// produce the same sessions byte for byte and leave their generators at the
// same point of the stream; a stream stopped early yields a prefix of the
// same trace.
func TestStreamMatrixMatchesMatrix(t *testing.T) {
	cfg := GeneratorConfig{
		PacketsPerSession: 4, PayloadBytes: 48, MaliciousFraction: 0.3,
		Signatures: [][]byte{[]byte("attack-one"), []byte("exploit")},
	}
	matrices := [][][]int{
		{{0, 2, 1}, {0, 0, 3}, {1, 0, 0}},
		{{5}},
		{{0, 0}, {0, 0}},
		{},
		{{2, -1}, {1, 0}},
		{{1, 1}, {-1, 0}},
		{{-3, 4, 0}, {2, 0, -1}, {0, 7, 1}},
		{{3, 0, 0, 9}, {0, 1, 0, 0}, {4, 0, 0, 2}, {0, 0, 6, 0}},
	}
	for _, seed := range []int64{1, 2, 7, 511} {
		for mi, counts := range matrices {
			ref := NewGenerator(cfg, seed)
			want := referenceMatrix(ref, counts)

			mat := NewGenerator(cfg, seed)
			if got := mat.Matrix(counts); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d matrix %d: Matrix differs from the reference (%d vs %d sessions)",
					seed, mi, len(got), len(want))
			}
			// The stream writes every session into one recycled Session and
			// payload buffer, each compared before the next overwrites it.
			str := NewGenerator(cfg, seed)
			var s Session
			buf := make([]byte, str.SessionBytes())
			got := 0
			StreamMatrix(counts, func(a, b int) bool {
				str.SessionInto(&s, a, b, buf)
				if got >= len(want) || !reflect.DeepEqual(s, want[got]) {
					t.Fatalf("seed %d matrix %d: streamed session %d differs from the reference", seed, mi, got)
				}
				got++
				return true
			})
			if got != len(want) {
				t.Fatalf("seed %d matrix %d: stream made %d sessions, the reference %d", seed, mi, got, len(want))
			}
			next := ref.Session(0, 0)
			if !reflect.DeepEqual(mat.Session(0, 0), next) || !reflect.DeepEqual(str.Session(0, 0), next) {
				t.Fatalf("seed %d matrix %d: generators end at different stream positions", seed, mi)
			}

			if len(want) < 2 {
				continue
			}
			stop := len(want) / 2
			var prefix []Session
			pg := NewGenerator(cfg, seed)
			StreamMatrix(counts, func(a, b int) bool {
				prefix = append(prefix, pg.Session(a, b))
				return len(prefix) < stop
			})
			if !reflect.DeepEqual(prefix, want[:stop]) {
				t.Fatalf("seed %d matrix %d: stream stopped after %d sessions yielded %d, or different ones",
					seed, mi, stop, len(prefix))
			}
		}
	}
}

func TestScanSessions(t *testing.T) {
	g := NewGenerator(GeneratorConfig{}, 5)
	out := g.ScanSessions(2, []int{3, 4, 5}, 30)
	if len(out) != 30 {
		t.Fatalf("sessions = %d", len(out))
	}
	src := out[0].Tuple.SrcIP
	dsts := map[uint32]bool{}
	for _, s := range out {
		if s.Tuple.SrcIP != src {
			t.Fatal("scanner source must be stable")
		}
		dsts[s.Tuple.DstIP] = true
	}
	if len(dsts) != 30 {
		t.Fatalf("distinct destinations = %d, want 30", len(dsts))
	}
}
