package topology

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestFormatParseRoundTrip(t *testing.T) {
	for _, g := range Evaluation() {
		var buf bytes.Buffer
		if err := Format(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if got.Name() != g.Name() || got.NumNodes() != g.NumNodes() || got.NumLinks() != g.NumLinks() {
			t.Fatalf("%s: round trip changed shape", g.Name())
		}
		for i, n := range g.Nodes() {
			if got.Node(i) != n {
				t.Fatalf("%s: node %d changed: %+v vs %+v", g.Name(), i, got.Node(i), n)
			}
		}
		for i, l := range g.Links() {
			if got.Link(i) != l {
				t.Fatalf("%s: link %d changed", g.Name(), i)
			}
		}
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	src := `
# a tiny demo
topology demo

node a 1.5
node b 2
# the only link
link a b
`
	g, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "demo" || g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Fatalf("parsed %s with %d nodes %d links", g.Name(), g.NumNodes(), g.NumLinks())
	}
	if g.Node(0).Population != 1.5 {
		t.Fatal("population lost")
	}
}

// parseErrorCases are inputs Parse must reject, by what is wrong with them.
var parseErrorCases = map[string]string{
	"empty":          "",
	"node first":     "node a 1\n",
	"link first":     "link a b\n",
	"dup topology":   "topology a\ntopology b\n",
	"bad population": "topology t\nnode a zero\n",
	"neg population": "topology t\nnode a -1\n",
	"dup node":       "topology t\nnode a 1\nnode a 2\n",
	"unknown node":   "topology t\nnode a 1\nlink a b\n",
	"self loop":      "topology t\nnode a 1\nlink a a\n",
	"dup link":       "topology t\nnode a 1\nnode b 1\nlink a b\nlink b a\n",
	"bad directive":  "topology t\nrouter a\n",
	"short node":     "topology t\nnode a\n",
	"short link":     "topology t\nnode a 1\nlink a\n",
	"short topology": "topology\n",
	"nan population": "topology t\nnode a NaN\n",
	"inf population": "topology t\nnode a +Inf\n",
	"257 nodes":      nodeLines(257),
}

// nodeLines returns a topology of n distinctly named nodes and no links.
func nodeLines(n int) string {
	var b strings.Builder
	b.WriteString("topology t\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "node n%d 1\n", i)
	}
	return b.String()
}

func TestParseErrors(t *testing.T) {
	for name, src := range parseErrorCases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// The population and node-count errors name the offending line, and
	// the node limit is 256, not fewer.
	for name, line := range map[string]string{"nan population": "line 2:", "inf population": "line 2:", "257 nodes": "line 258:"} {
		if _, err := Parse(strings.NewReader(parseErrorCases[name])); !strings.Contains(err.Error(), line) {
			t.Fatalf("%s: error %q does not name %q", name, err, line)
		}
	}
	if _, err := Parse(strings.NewReader(nodeLines(256))); err != nil {
		t.Fatalf("256 nodes: %v", err)
	}
}

// FuzzParse feeds Parse arbitrary text. It must not panic, and a graph it
// accepts must come back from Format and Parse equal: the same name, node
// names, bit-equal populations and links.
func FuzzParse(f *testing.F) {
	for _, g := range Evaluation() {
		var buf bytes.Buffer
		if err := Format(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, src := range parseErrorCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Format(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := Parse(&buf)
		if err != nil {
			t.Fatalf("formatted graph does not parse: %v\n%s", err, buf.String())
		}
		if got.Name() != g.Name() || got.NumNodes() != g.NumNodes() || got.NumLinks() != g.NumLinks() {
			t.Fatalf("round trip changed shape: %q %d nodes %d links, then %q %d nodes %d links",
				g.Name(), g.NumNodes(), g.NumLinks(), got.Name(), got.NumNodes(), got.NumLinks())
		}
		for i, n := range g.Nodes() {
			m := got.Node(i)
			if m.ID != n.ID || m.Name != n.Name || math.Float64bits(m.Population) != math.Float64bits(n.Population) {
				t.Fatalf("node %d: %+v, then %+v", i, n, m)
			}
		}
		for i, l := range g.Links() {
			if got.Link(i) != l {
				t.Fatalf("link %d: %+v, then %+v", i, l, got.Link(i))
			}
		}
	})
}
