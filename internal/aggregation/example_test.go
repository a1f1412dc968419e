package aggregation_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"

	"nwids/internal/aggregation"
	"nwids/internal/core"
	"nwids/internal/nids"
	"nwids/internal/packet"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// Distributed scan detection with aggregation (§6, §7.3): scan detection
// counts the distinct destinations each source contacts, so without
// aggregation it is pinned to each class's ingress. The three examples
// below replay the paper's Figure 8 worked example, run a live distributed
// scan detection over TCP, and solve the aggregation LP.

// ExamplePathMonitors replays the Figure 8 worked example: 2 sources × 4
// destinations × 2 flows on two 2-hop paths out of the aggregation node
// N1, comparing the work-splitting strategies by communication cost.
func ExamplePathMonitors() {
	fmt.Println("== Figure 8: splitting strategies ==")
	type contact struct {
		src, dst uint32
		path     int
	}
	var contacts []contact
	for _, s := range []uint32{101, 102} {
		for di, d := range []uint32{201, 202, 203, 204} {
			for f := 0; f < 2; f++ {
				contacts = append(contacts, contact{s, d, di / 2})
			}
		}
	}
	dist := func(node int) int { return map[int]int{2: 1, 3: 2, 4: 1, 5: 2}[node] }
	feed := func(paths []*aggregation.PathMonitors) {
		for _, c := range contacts {
			tuple := packet.FiveTuple{Proto: 6, SrcIP: c.src, DstIP: c.dst, SrcPort: 1234, DstPort: 80}
			paths[c.path].Observe(tuple)
		}
	}
	rowHops := func(paths []*aggregation.PathMonitors) int {
		cost := 0
		for _, pm := range paths {
			for _, r := range pm.CounterReports() {
				cost += len(r.Counts) * dist(r.Node)
			}
		}
		return cost
	}

	// Destination-level split: exact, but every node reports every source.
	dstOwner := func(first uint32) aggregation.OwnerFunc {
		return func(_, dst uint32, _ packet.FiveTuple) int {
			if dst == first {
				return 0
			}
			return 1
		}
	}
	paths := []*aggregation.PathMonitors{
		aggregation.NewPathMonitors(aggregation.DestinationLevel, []int{2, 3}, dstOwner(201)),
		aggregation.NewPathMonitors(aggregation.DestinationLevel, []int{4, 5}, dstOwner(203)),
	}
	feed(paths)
	fmt.Printf("destination-level: %d row-hops (paper: 12)\n", rowHops(paths))

	// Source-level split: exact and communication-minimal.
	srcOwner := func(src, _ uint32, _ packet.FiveTuple) int {
		if src == 101 {
			return 0
		}
		return 1
	}
	paths = []*aggregation.PathMonitors{
		aggregation.NewPathMonitors(aggregation.SourceLevel, []int{2, 3}, srcOwner),
		aggregation.NewPathMonitors(aggregation.SourceLevel, []int{4, 5}, srcOwner),
	}
	feed(paths)
	fmt.Printf("source-level:      %d row-hops (paper: 6) — chosen strategy\n", rowHops(paths))

	// Output:
	// == Figure 8: splitting strategies ==
	// destination-level: 12 row-hops (paper: 12)
	// source-level:      6 row-hops (paper: 6) — chosen strategy
}

// ExampleAggregator ships per-source counter reports over real TCP to an
// aggregator applying threshold k, and cross-checks it with a centralized
// oracle.
func ExampleAggregator() {
	fmt.Println("== live aggregation over TCP ==")
	const k = 15

	// Aggregator: a TCP server decoding ⟨src, count⟩ rows.
	agg := aggregation.NewAggregator(k)
	done := make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	expected := 3 // reports
	go func() {
		defer close(done)
		for i := 0; i < expected; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(conn); err == nil {
				for buf.Len() >= 8 {
					var row [8]byte
					buf.Read(row[:])
					agg.AddCounts([]nids.SourceCount{{
						Src:   binary.BigEndian.Uint32(row[0:]),
						Count: int(binary.BigEndian.Uint32(row[4:])),
					}})
				}
			}
			if err := conn.Close(); err != nil {
				panic(err)
			}
		}
	}()

	// Three monitoring nodes split a scanner's traffic by source hash;
	// each runs threshold 0 and reports everything (§7.3).
	gen := packet.NewGenerator(packet.GeneratorConfig{}, 11)
	sessions := gen.ScanSessions(0, []int{1, 2, 3}, 40) // scanner: 40 dsts
	sessions = append(sessions, gen.ScanSessions(1, []int{2}, 5)...)
	pm := aggregation.NewPathMonitors(aggregation.SourceLevel, []int{1, 2, 3}, nil)
	oracle := nids.NewScanDetector(k)
	for _, s := range sessions {
		pm.Observe(s.Tuple)
		oracle.Observe(s.Tuple.SrcIP, s.Tuple.DstIP)
	}
	for _, r := range pm.CounterReports() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			panic(err)
		}
		for _, sc := range r.Counts {
			var row [8]byte
			binary.BigEndian.PutUint32(row[0:], sc.Src)
			binary.BigEndian.PutUint32(row[4:], uint32(sc.Count))
			if _, err := conn.Write(row[:]); err != nil {
				panic(err)
			}
		}
		if err := conn.Close(); err != nil {
			panic(err)
		}
	}
	<-done
	if err := ln.Close(); err != nil {
		panic(err)
	}

	got := agg.Alerts()
	want := oracle.Report()
	fmt.Printf("aggregated alerts: %v\n", got)
	fmt.Printf("centralized oracle: %v\n", want)
	if len(got) == len(want) && len(got) > 0 && got[0] == want[0] {
		fmt.Println("distributed result is semantically equivalent to the centralized detector ✓")
	} else {
		fmt.Printf("aggregation mismatch: %v vs %v\n", got, want)
	}

	// Output:
	// == live aggregation over TCP ==
	// aggregated alerts: [{167778521 40}]
	// centralized oracle: [{167778521 40}]
	// distributed result is semantically equivalent to the centralized detector ✓
}

// Example_aggregationLP solves the §6 formulation on Internet2 and
// compares its load balance with ingress-only scan detection.
func Example_aggregationLP() {
	fmt.Println("== aggregation LP (Internet2) ==")
	g := topology.Internet2()
	sc := core.NewScenario(g, traffic.GravityDefault(g), core.ScenarioOptions{})
	none := core.IngressAggregation(sc)
	with, err := core.SolveAggregation(sc, core.AggregationConfig{Beta: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("no aggregation:  max/avg load = %.2f\n",
		none.Assignment.MaxLoad()/none.Assignment.AvgLoad())
	fmt.Printf("with aggregation: max/avg load = %.2f, comm cost %.3g byte-hops\n",
		with.Assignment.MaxLoad()/with.Assignment.AvgLoad(), with.CommCost)

	// Output:
	// == aggregation LP (Internet2) ==
	// no aggregation:  max/avg load = 2.57
	// with aggregation: max/avg load = 1.26, comm cost 2e+07 byte-hops
}
