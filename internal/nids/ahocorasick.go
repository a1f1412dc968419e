// Package nids implements a session-level network intrusion detection
// engine: multi-pattern signature matching (a from-scratch Aho-Corasick
// automaton, the core of Snort-style payload inspection), scan detection
// (distinct-destination counting), a bidirectional flow table for stateful
// analysis, and per-resource work accounting used as the emulation's
// "CPU instructions" stand-in.
package nids

import "math"

// Match reports one pattern occurrence in a scanned byte stream.
type Match struct {
	// Pattern is the index of the matched pattern as passed to NewMatcher.
	Pattern int
	// End is the byte offset just past the match's last byte.
	End int
}

// Matcher is an Aho-Corasick automaton over byte patterns. It is immutable
// after NewMatcher returns: no method writes to it, and ScanStreamInto keeps
// all mutable state — the automaton state and the match buffer — in its
// arguments and results. One Matcher may therefore be scanned from any
// number of goroutines at once, and shared by every engine of a fleet
// (NewEngineWithMatcher).
//
// Layout. The goto/fail-resolved transition table is one flat slice of
// 256-entry rows, and a state is its row's offset in that slice (row·256,
// "premultiplied"), so the per-byte step is one add and one load:
// state = tab[state+b]. The root is row 0, hence state 0. Rows are numbered
// in BFS order with every emitting state after every silent one, so "does
// this state emit?" is one compare against emitFrom rather than a second,
// dependent load. The output lists of the emitting rows are flattened into
// one CSR array. No maps or per-match allocations are touched while
// scanning.
type Matcher struct {
	patterns [][]byte
	// tab[state+b] is the state after reading byte b in state; len(tab) is
	// 256 × the number of states and every entry is a multiple of 256.
	tab []uint32
	// emitFrom is the first emitting state: state s reports matches iff
	// s >= emitFrom.
	emitFrom uint32
	// outFlat/outOff list the pattern indices ending at each emitting state
	// in CSR form, indexed by the state's row counted from emitFrom's.
	outFlat []int32
	outOff  []int32
	// warm is the longest pattern's length minus one: the number of bytes
	// after which a scan started at the root has caught up with a scan
	// started anywhere earlier (see ScanStreamInto).
	warm int
}

// laneMinFactor sets the payload length above which the four-lane kernel
// takes over, in longest-pattern lengths. A four-lane scan of n bytes runs
// n/4 + ¾·warm interleaved steps where the single lane runs n. Under the
// default ruleset (longest pattern 41 B) the two cost the same at 80–100 B,
// about 2.2 lengths, and the lanes are ahead by a quarter at 3 (123 B: 150 vs
// 210 ns) and by nearly half at 4.
const laneMinFactor = 3

// laneMin is the shortest payload the four-lane kernel takes: more than
// laneMinFactor longest patterns, which also leaves every lane a byte of
// its own behind the warm-up.
func (m *Matcher) laneMin() int { return laneMinFactor*(m.warm+1) + 1 }

// NewMatcher builds an automaton for the given patterns. Empty patterns are
// rejected; duplicates are allowed and each reports its own index.
func NewMatcher(patterns [][]byte) *Matcher {
	maxLen := 0
	for i, p := range patterns {
		if len(p) == 0 {
			panic("nids: empty pattern at index " + itoa(i))
		}
		maxLen = max(maxLen, len(p))
	}
	m := &Matcher{patterns: patterns, warm: max(maxLen-1, 0)}
	// Build the trie.
	out := [][]int32{nil}
	next := [][256]int32{{}} // 0 = absent (root handled specially)
	for pi, p := range patterns {
		state := int32(0)
		for _, b := range p {
			nxt := next[state][b]
			if nxt == 0 {
				nxt = int32(len(next))
				next = append(next, [256]int32{})
				out = append(out, nil)
				next[state][b] = nxt
			}
			state = nxt
		}
		out[state] = append(out[state], int32(pi))
	}
	n := len(next)
	if n > math.MaxInt32/256 {
		panic("nids: automaton of " + itoa(n) + " states does not fit an int32 state")
	}
	// BFS to compute failure links, resolving each trie row in place into
	// its full transition row: a state's failure target is shallower, so
	// its row is already resolved when the state is reached.
	fail := make([]int32, n)
	order := make([]int32, 1, n) // BFS order, root first
	for b := 0; b < 256; b++ {
		if s := next[0][b]; s != 0 {
			order = append(order, s)
		}
	}
	for head := 1; head < len(order); head++ {
		u := order[head]
		out[u] = append(out[u], out[fail[u]]...)
		for b := 0; b < 256; b++ {
			v := next[u][b]
			if v == 0 {
				next[u][b] = next[fail[u]][b]
				continue
			}
			fail[v] = next[fail[u]][b]
			order = append(order, v)
		}
	}
	// Renumber: silent states first, emitting states last, BFS order within
	// each, premultiplied by the row width. The root is silent (no empty
	// pattern) and first in BFS order, so it stays 0.
	id := make([]uint32, n)
	rows := uint32(0)
	for _, emitting := range []bool{false, true} {
		if emitting {
			m.emitFrom = rows * 256
		}
		for _, u := range order {
			if (len(out[u]) > 0) == emitting {
				id[u] = rows * 256
				rows++
			}
		}
	}
	m.tab = make([]uint32, n*256)
	for u := range next {
		row := m.tab[id[u]:][:256]
		for b, v := range next[u] {
			row[b] = id[v]
		}
	}
	// Flatten the emitting states' output lists into CSR form, in row order.
	m.outOff = make([]int32, 1, n-int(m.emitFrom/256)+1)
	for _, u := range order {
		if len(out[u]) > 0 {
			m.outFlat = append(m.outFlat, out[u]...)
			m.outOff = append(m.outOff, int32(len(m.outFlat)))
		}
	}
	return m
}

// NumPatterns returns the number of patterns in the automaton.
func (m *Matcher) NumPatterns() int { return len(m.patterns) }

// NumStates returns the automaton's state count (trie nodes).
func (m *Matcher) NumStates() int { return len(m.tab) / 256 }

// report appends the matches of emitting state s, which end at offset end.
func (m *Matcher) report(s uint32, end int, out []Match) []Match {
	row := (s - m.emitFrom) / 256
	for _, pi := range m.outFlat[m.outOff[row]:m.outOff[row+1]] {
		out = append(out, Match{Pattern: int(pi), End: end})
	}
	return out
}

// Scan runs the automaton over data from the root and returns all matches
// in order of their end offsets.
func (m *Matcher) Scan(data []byte) []Match {
	_, out := m.ScanStreamInto(0, data, nil)
	return out
}

// ScanStreamInto resumes scanning from a previous automaton state,
// appending every match to out (pass a reused buffer, typically out[:0],
// for a zero-allocation steady state) and returning the new state and the
// appended slice. state must be 0 (the root) or a state this Matcher
// returned. Matches are appended in order of End; matches sharing an End
// come longest-first. This is the engine's per-packet entry point.
//
// A single scan is a chain of dependent loads — each byte's table lookup
// waits for the previous byte's — so the core sits idle for most of every
// step. Payloads of laneMin bytes and more are therefore cut into four
// chunks scanned in one interleaved loop, four independent chains at a
// time. Lane 0 starts from the carried state. Lanes 1–3 start from the root,
// warm bytes ahead of their chunk, and report nothing over that warm-up.
// That is exact, because the state after a byte is the longest suffix of the
// stream so far that is a prefix of some pattern, which the last maxLen
// bytes determine. Let u be the true state at a chunk's start and v the
// state the warm-up reaches, i.e. the longest such suffix within the last
// warm = maxLen−1 bytes. If u is shallower than maxLen it lies within those
// bytes and u = v. Otherwise u is a longest pattern's leaf: it has no
// children, so it steps exactly as its failure state does, and its failure
// state — the longest proper suffix of u that is a pattern prefix — is v.
// Either way the lane agrees with a sequential scan from its chunk's first
// byte on, which is all it reports: u's own matches end in the previous
// lane's chunk. No lane's chunk is empty, so the last lane's final state is
// the sequential scan's too.
//
// The interleaved loop runs for as long as every lane is silent and stops
// at the first emitting state in any lane; from there each lane finishes
// its own chunk sequentially, lanes in order, so matches are appended as a
// sequential scan appends them and no byte is stepped over twice. The worst
// case is therefore a payload whose first bytes match: it costs the
// sequential scan plus at most warm discarded steps. A payload without
// matches — nearly all traffic — never leaves the interleaved loop.
func (m *Matcher) ScanStreamInto(state int32, data []byte, out []Match) (int32, []Match) {
	if len(data) < m.laneMin() {
		return m.scanLane(state, data, 0, out)
	}
	// Lanes 1–3 own q ≥ 1 bytes each and lane 0 owns w+q, so that with the
	// warm-ups all four walk w+q bytes, lane k from offset k·q; the up to
	// three bytes left over go to lane 3.
	w := m.warm
	q := (len(data) - w) / 4
	s := [4]uint32{uint32(state)}
	i := m.silent4(&s, data[:w+q], data[q:], data[2*q:], data[3*q:])
	if i <= w {
		// An emitting state (the carried one, or a match inside the first
		// warm bytes of some lane's walk) before lanes 1–3 reached bytes of
		// their own: nothing to keep, scan sequentially.
		return m.scanLane(state, data, 0, out)
	}
	// Every lane stands i bytes into its walk, past its warm-up, and has
	// reported nothing: the state it stands in, if emitting, and the rest of
	// its chunk are still to do. After a clean run that is nothing at all.
	for k, sk := range s {
		pos, end := k*q+i, w+(k+1)*q
		if k == 3 {
			end = len(data)
		}
		if sk >= m.emitFrom {
			out = m.report(sk, pos, out)
		}
		state = int32(sk)
		if pos < end {
			state, out = m.scanLane(state, data[pos:end], pos, out)
		}
	}
	return state, out
}

// silent4 is the interleaved loop: it steps lane k from s[k] over dk, up to
// len(d0) bytes each, for as long as no lane stands in an emitting state,
// and returns the number of steps taken, leaving the lanes' states in s. A
// step out of an emitting state indexes past the silent rows, so one compare
// per lane and step is both the bounds check and the emit test.
func (m *Matcher) silent4(s *[4]uint32, d0, d1, d2, d3 []byte) int {
	silent := m.tab[:m.emitFrom]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	i := 0
	for ; i < len(d0); i++ {
		x0, x1, x2, x3 := uint(s0)+uint(d0[i]), uint(s1)+uint(d1[i]), uint(s2)+uint(d2[i]), uint(s3)+uint(d3[i])
		if x0 >= uint(len(silent)) || x1 >= uint(len(silent)) || x2 >= uint(len(silent)) || x3 >= uint(len(silent)) {
			break
		}
		s0, s1, s2, s3 = silent[x0], silent[x1], silent[x2], silent[x3]
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	return i
}

// scanLane is the sequential scan: it walks data from state, appending each
// match with End counted from base, the offset of data in the payload.
func (m *Matcher) scanLane(state int32, data []byte, base int, out []Match) (int32, []Match) {
	tab, emitFrom := m.tab, m.emitFrom
	s := uint32(state)
	for i, b := range data {
		s = tab[s+uint32(b)]
		if s >= emitFrom {
			out = m.report(s, base+i+1, out)
		}
	}
	return int32(s), out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
