// Package aggregation implements intermediate-result aggregation for
// topologically-constrained NIDS analyses (§6, §7.3), concretely for Scan
// detection: the three work-splitting strategies of Figure 8 (flow-level,
// destination-level, source-level), per-node monitors with a zero reporting
// threshold, report encodings with byte-hop communication accounting, and
// the aggregator that reconstructs the centralized result.
package aggregation

import (
	"sort"

	"nwids/internal/nids"
	"nwids/internal/packet"
)

// Strategy selects how scan-detection work is split across the nodes of a
// path (Figure 8).
type Strategy int

// Strategies.
const (
	// FlowLevel splits traffic per flow. Exact only when nodes report full
	// ⟨src, dst⟩ tuples: per-source counters over-count multi-flow pairs.
	FlowLevel Strategy = iota
	// DestinationLevel splits by destination address; per-source counters
	// are exact but every node may report every source.
	DestinationLevel
	// SourceLevel splits by source address; exact and communication-minimal
	// (§6's chosen strategy).
	SourceLevel
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case FlowLevel:
		return "flow-level"
	case DestinationLevel:
		return "destination-level"
	case SourceLevel:
		return "source-level"
	default:
		return "unknown-strategy"
	}
}

// Report row sizes in bytes: a counter row is ⟨src, count⟩, a tuple row is
// ⟨src, dst⟩; both are two 32-bit words.
const (
	CounterRowBytes = 8
	TupleRowBytes   = 8
)

// fnv1a hashes a word for owner selection.
func fnv1a(x uint32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= x & 0xff
		h *= 16777619
		x >>= 8
	}
	return h
}

// OwnerFunc decides which monitoring node (by position index) observes a
// given contact under a split strategy.
type OwnerFunc func(src, dst uint32, tuple packet.FiveTuple) int

// DefaultOwner returns the hash-based owner function for a strategy over
// nMonitors nodes, mirroring the shim's per-field hashing (§7.2: "the hash
// is over the appropriate field used for splitting the task"). The hash is
// reduced as a uint32, so the owner is in [0, nMonitors) on every platform:
// converting it to int first would go negative where int is 32 bits.
func DefaultOwner(s Strategy, nMonitors int) OwnerFunc {
	n := uint32(nMonitors)
	return func(src, dst uint32, tuple packet.FiveTuple) int {
		switch s {
		case SourceLevel:
			return int(fnv1a(src) % n)
		case DestinationLevel:
			return int(fnv1a(dst) % n)
		default: // FlowLevel: hash the canonical 5-tuple
			c := tuple.Canonical()
			h := fnv1a(c.SrcIP) ^ fnv1a(c.DstIP)*31 ^ fnv1a(uint32(c.SrcPort)<<16|uint32(c.DstPort))*17
			return int(h % n)
		}
	}
}

// PathMonitors runs one scan-detection sub-task per monitoring node of a
// path. Every monitor uses reporting threshold k = 0 so the aggregator
// alone applies the real threshold (§7.3).
type PathMonitors struct {
	Strategy Strategy
	// Nodes lists the monitoring nodes (their IDs, used for distance
	// lookups when costing reports).
	Nodes []int
	owner OwnerFunc
	mons  []*nids.ScanDetector
}

// NewPathMonitors creates monitors on the given nodes. A nil owner selects
// DefaultOwner for the strategy.
func NewPathMonitors(s Strategy, nodes []int, owner OwnerFunc) *PathMonitors {
	if len(nodes) == 0 {
		panic("aggregation: no monitoring nodes")
	}
	if owner == nil {
		owner = DefaultOwner(s, len(nodes))
	}
	pm := &PathMonitors{Strategy: s, Nodes: nodes, owner: owner}
	for range nodes {
		pm.mons = append(pm.mons, nids.NewScanDetector(0))
	}
	return pm
}

// Observe routes one contact to its owning monitor.
func (pm *PathMonitors) Observe(tuple packet.FiveTuple) {
	idx := pm.owner(tuple.SrcIP, tuple.DstIP, tuple)
	pm.mons[idx].Observe(tuple.SrcIP, tuple.DstIP)
}

// Monitor returns the detector of the i-th monitoring node.
func (pm *PathMonitors) Monitor(i int) *nids.ScanDetector { return pm.mons[i] }

// Report is one node's intermediate report with its size accounting.
type Report struct {
	Node   int
	Counts []nids.SourceCount
	Tuples [][2]uint32
	Bytes  int
}

// CounterReports builds per-source counter reports from every monitor
// (the encoding for source- and destination-level splits, and the *unsound*
// cheap encoding for flow-level splits).
func (pm *PathMonitors) CounterReports() []Report {
	out := make([]Report, len(pm.mons))
	for i, m := range pm.mons {
		counts := m.Report()
		out[i] = Report{Node: pm.Nodes[i], Counts: counts, Bytes: CounterRowBytes * len(counts)}
	}
	return out
}

// TupleReports builds full ⟨src, dst⟩ reports (the sound encoding for
// flow-level splits, at higher communication cost).
func (pm *PathMonitors) TupleReports() []Report {
	out := make([]Report, len(pm.mons))
	for i, m := range pm.mons {
		tuples := m.Tuples()
		out[i] = Report{Node: pm.Nodes[i], Tuples: tuples, Bytes: TupleRowBytes * len(tuples)}
	}
	return out
}

// CommCost sums the byte-hop footprint of reports given a hop-distance
// function from each node to the aggregation point (§3's communication
// cost metric).
func CommCost(reports []Report, dist func(node int) int) int {
	total := 0
	for _, r := range reports {
		total += r.Bytes * dist(r.Node)
	}
	return total
}

// Aggregator post-processes intermediate reports and applies the real scan
// threshold k, reproducing the semantics of a centralized detector (§7.3).
type Aggregator struct {
	K      int
	counts map[uint32]int
	dsts   map[uint32]map[uint32]struct{}
	merges MergeStats
}

// MergeStats counts the intermediate-report messages an aggregator has
// merged — the §3 communication picture from the aggregation point's side.
type MergeStats struct {
	// Reports counts AddCounts/AddTuples calls (one per node message).
	Reports int
	// CounterRows and TupleRows count merged rows by encoding; multiply by
	// CounterRowBytes/TupleRowBytes for the byte volume received.
	CounterRows int
	TupleRows   int
}

// Bytes returns the total report bytes received.
func (m MergeStats) Bytes() int {
	return m.CounterRows*CounterRowBytes + m.TupleRows*TupleRowBytes
}

// Stats returns the message counters accumulated so far.
func (a *Aggregator) Stats() MergeStats { return a.merges }

// NewAggregator returns an aggregator with threshold k.
func NewAggregator(k int) *Aggregator {
	return &Aggregator{K: k, counts: make(map[uint32]int), dsts: make(map[uint32]map[uint32]struct{})}
}

// AddCounts merges a per-source counter report by summation (sound for
// source- and destination-level splits).
func (a *Aggregator) AddCounts(counts []nids.SourceCount) {
	a.merges.Reports++
	a.merges.CounterRows += len(counts)
	for _, sc := range counts {
		a.counts[sc.Src] += sc.Count
	}
}

// AddTuples merges a full tuple report by set union (sound for any split).
func (a *Aggregator) AddTuples(tuples [][2]uint32) {
	a.merges.Reports++
	a.merges.TupleRows += len(tuples)
	for _, t := range tuples {
		m, ok := a.dsts[t[0]]
		if !ok {
			m = make(map[uint32]struct{})
			a.dsts[t[0]] = m
		}
		m[t[1]] = struct{}{}
	}
}

// Alerts returns sources whose aggregate distinct-destination count exceeds
// K, sorted by source. Counter sums and tuple unions contribute per the
// reports that were added.
func (a *Aggregator) Alerts() []nids.SourceCount {
	totals := make(map[uint32]int, len(a.counts)+len(a.dsts))
	for src, c := range a.counts {
		totals[src] += c
	}
	for src, m := range a.dsts {
		totals[src] += len(m)
	}
	var out []nids.SourceCount
	for src, c := range totals {
		if c > a.K {
			out = append(out, nids.SourceCount{Src: src, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}
