package topology

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Format writes the graph in the repository's plain-text topology format:
//
//	topology <name>
//	node <name> <population>
//	...
//	link <nameA> <nameB>
//	...
//
// Lines starting with '#' are comments. The format round-trips through
// Parse (node IDs are assigned in declaration order).
func Format(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "topology %s\n", g.Name())
	for _, n := range g.Nodes() {
		fmt.Fprintf(bw, "node %s %s\n", n.Name, strconv.FormatFloat(n.Population, 'g', -1, 64))
	}
	for _, l := range g.Links() {
		fmt.Fprintf(bw, "link %s %s\n", g.Node(l.A).Name, g.Node(l.B).Name)
	}
	return bw.Flush()
}

// maxNodes is the most PoPs a graph may have: a PoP index travels in one
// byte of a host address (packet.PoPIP) and of a shim class key
// (shim.ClassKey), so a larger graph would alias classes.
const maxNodes = 256

// Parse reads a graph from the plain-text topology format written by
// Format. Unknown directives, duplicate node names, links naming unknown
// nodes, malformed numbers, populations that are not positive and finite,
// and nodes past the 256th are reported with line numbers.
func Parse(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var g *Graph
	byName := map[string]int{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "topology":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topology: line %d: want 'topology <name>'", lineNo)
			}
			if g != nil {
				return nil, fmt.Errorf("topology: line %d: duplicate topology directive", lineNo)
			}
			g = New(fields[1])
		case "node":
			if g == nil {
				return nil, fmt.Errorf("topology: line %d: node before topology directive", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("topology: line %d: want 'node <name> <population>'", lineNo)
			}
			if _, dup := byName[fields[1]]; dup {
				return nil, fmt.Errorf("topology: line %d: duplicate node %q", lineNo, fields[1])
			}
			if g.NumNodes() == maxNodes {
				return nil, fmt.Errorf("topology: line %d: more than %d nodes", lineNo, maxNodes)
			}
			pop, err := strconv.ParseFloat(fields[2], 64)
			// !(pop > 0) also rejects NaN.
			if err != nil || !(pop > 0) || math.IsInf(pop, 1) {
				return nil, fmt.Errorf("topology: line %d: bad population %q", lineNo, fields[2])
			}
			byName[fields[1]] = g.AddNode(fields[1], pop)
		case "link":
			if g == nil {
				return nil, fmt.Errorf("topology: line %d: link before topology directive", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("topology: line %d: want 'link <a> <b>'", lineNo)
			}
			a, ok := byName[fields[1]]
			if !ok {
				return nil, fmt.Errorf("topology: line %d: unknown node %q", lineNo, fields[1])
			}
			b, ok := byName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("topology: line %d: unknown node %q", lineNo, fields[2])
			}
			if a == b {
				return nil, fmt.Errorf("topology: line %d: self-loop at %q", lineNo, fields[1])
			}
			for _, nb := range g.Neighbors(a) {
				if nb == b {
					return nil, fmt.Errorf("topology: line %d: duplicate link %s-%s", lineNo, fields[1], fields[2])
				}
			}
			g.AddLink(a, b)
		default:
			return nil, fmt.Errorf("topology: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("topology: empty input")
	}
	return g, nil
}
