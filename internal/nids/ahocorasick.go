// Package nids implements a session-level network intrusion detection
// engine: multi-pattern signature matching (a from-scratch Aho-Corasick
// automaton, the core of Snort-style payload inspection), scan detection
// (distinct-destination counting), a bidirectional flow table for stateful
// analysis, and per-resource work accounting used as the emulation's
// "CPU instructions" stand-in.
package nids

// Match reports one pattern occurrence in a scanned byte stream.
type Match struct {
	// Pattern is the index of the matched pattern as passed to NewMatcher.
	Pattern int
	// End is the byte offset just past the match's last byte.
	End int
}

// Matcher is an Aho-Corasick automaton over byte patterns. It is immutable
// after NewMatcher returns: no method writes to it, and the scan methods
// (ScanStreamInto included) keep all mutable state — the automaton state and
// the match buffer — in their arguments and results. One Matcher may
// therefore be scanned from any number of goroutines at once, and shared by
// every engine of a fleet (NewEngineWithMatcher).
//
// The automaton is stored cache-dense: one contiguous goto/fail-resolved
// transition table of 256-entry per-state rows (a single scaled index per
// byte, no pointer chasing), a per-state hasOut bitset so the per-byte
// inner loop is one transition load plus one bit test, and the output lists
// flattened into a single CSR array. No maps or per-match allocations are
// touched while scanning.
type Matcher struct {
	patterns [][]byte
	// next[state][b] is the goto/fail-resolved transition table; the backing
	// array is one contiguous block, padded to a power-of-two row count so
	// the scan loop can mask the state index instead of bounds-checking it.
	next [][256]int32
	// hasOut is a per-state bitset: bit s set iff state s emits matches.
	hasOut []uint64
	// outFlat/outOff list the pattern indices ending at each state in CSR
	// form: state s emits outFlat[outOff[s]:outOff[s+1]].
	outFlat []int32
	outOff  []int32
}

// NewMatcher builds an automaton for the given patterns. Empty patterns are
// rejected; duplicates are allowed and each reports its own index.
func NewMatcher(patterns [][]byte) *Matcher {
	for i, p := range patterns {
		if len(p) == 0 {
			panic("nids: empty pattern at index " + itoa(i))
		}
	}
	m := &Matcher{patterns: patterns}
	// Build the trie.
	out := [][]int32{nil}
	goTo := [][256]int32{{}} // 0 = absent (root handled specially)
	for pi, p := range patterns {
		state := int32(0)
		for _, b := range p {
			nxt := goTo[state][b]
			if nxt == 0 {
				nxt = int32(len(goTo))
				goTo = append(goTo, [256]int32{})
				out = append(out, nil)
				goTo[state][b] = nxt
			}
			state = nxt
		}
		out[state] = append(out[state], int32(pi))
	}
	n := len(goTo)
	fail := make([]int32, n)
	// BFS to compute failure links and collapse them into the dense
	// transition table. Rows are padded to a power of two: states never
	// reach the padding, it only licenses the masked (bounds-check-free)
	// indexing in the scan loops.
	rows := 1
	for rows < n {
		rows *= 2
	}
	m.next = make([][256]int32, rows)
	queue := make([]int32, 0, n)
	for b := 0; b < 256; b++ {
		s := goTo[0][b]
		m.next[0][b] = s
		if s != 0 {
			fail[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out[u] = append(out[u], out[fail[u]]...)
		for b := 0; b < 256; b++ {
			v := goTo[u][b]
			if v == 0 {
				m.next[u][b] = m.next[fail[u]][b]
				continue
			}
			fail[v] = m.next[fail[u]][b]
			m.next[u][b] = v
			queue = append(queue, v)
		}
	}
	// Flatten the output lists into CSR form plus the hasOut bitset (also
	// padded to the power-of-two row count, for the same masked indexing).
	m.hasOut = make([]uint64, rows/64+1)
	m.outOff = make([]int32, n+1)
	total := 0
	for s, list := range out {
		m.outOff[s] = int32(total)
		total += len(list)
		if len(list) > 0 {
			m.hasOut[s>>6] |= 1 << (uint(s) & 63)
		}
	}
	m.outOff[n] = int32(total)
	m.outFlat = make([]int32, 0, total)
	for _, list := range out {
		m.outFlat = append(m.outFlat, list...)
	}
	return m
}

// NumPatterns returns the number of patterns in the automaton.
func (m *Matcher) NumPatterns() int { return len(m.patterns) }

// NumStates returns the automaton's state count (trie nodes).
func (m *Matcher) NumStates() int { return len(m.outOff) - 1 }

// emits returns the pattern indices ending at state.
func (m *Matcher) emits(state int32) []int32 {
	return m.outFlat[m.outOff[state]:m.outOff[state+1]]
}

// Scan runs the automaton over data and returns all matches in order of
// their end offsets. The work performed is exactly one transition per byte.
func (m *Matcher) Scan(data []byte) []Match {
	var out []Match
	_, out = m.ScanStreamInto(0, data, out)
	return out
}

// ScanCount runs the automaton and returns only the number of matches,
// avoiding allocation on the hot path.
func (m *Matcher) ScanCount(data []byte) int {
	n := 0
	state := int32(0)
	next, hasOut := m.next, m.hasOut
	mask := int32(len(next) - 1)
	for _, b := range data {
		state = next[state&mask][b]
		if hasOut[int(state)>>6]&(1<<(uint(state)&63)) != 0 {
			n += len(m.emits(state))
		}
	}
	return n
}

// ScanStream resumes scanning from a previous automaton state, enabling
// cross-packet matching within a flow direction. It returns the new state
// and the number of matches found.
//
//nwids:hotpath
func (m *Matcher) ScanStream(state int32, data []byte, emit func(Match)) (int32, int) {
	n := 0
	next, hasOut := m.next, m.hasOut
	mask := int32(len(next) - 1)
	for i := 0; i < len(data); i++ {
		state = next[state&mask][data[i]]
		if hasOut[int(state)>>6]&(1<<(uint(state)&63)) != 0 {
			for _, pi := range m.emits(state) {
				n++
				if emit != nil {
					emit(Match{Pattern: int(pi), End: i + 1})
				}
			}
		}
	}
	return state, n
}

// ScanStreamInto resumes scanning from a previous automaton state,
// appending every match to out (pass a reused buffer, typically out[:0],
// for a zero-allocation steady state) and returning the new state and the
// appended slice. This is the engine's per-packet entry point: the
// per-byte inner loop is one transition load and one bitset test, with no
// closure call on the match-free path.
//
//nwids:hotpath
func (m *Matcher) ScanStreamInto(state int32, data []byte, out []Match) (int32, []Match) {
	next, hasOut := m.next, m.hasOut
	mask := int32(len(next) - 1)
	for i := 0; i < len(data); i++ {
		state = next[state&mask][data[i]]
		if hasOut[int(state)>>6]&(1<<(uint(state)&63)) != 0 {
			for _, pi := range m.emits(state) {
				out = append(out, Match{Pattern: int(pi), End: i + 1})
			}
		}
	}
	return state, out
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
