package experiments

import (
	"strings"
	"testing"
)

var quickOpts = Options{Topologies: []string{"Internet2", "Geant"}, Quick: true}

func TestTable1(t *testing.T) {
	rows, err := Table1(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ReplicationTime <= 0 || r.AggregationTime <= 0 {
			t.Fatalf("%s: nonpositive solve times", r.Topology)
		}
	}
	// Replication LPs are much larger than aggregation LPs, so their solves
	// take more simplex iterations (the paper's Table 1 shape). Iterations,
	// not wall time: millisecond solves on a busy machine can swap order.
	for _, r := range rows {
		if r.ReplicationIter <= r.AggregationIter {
			t.Errorf("%s: replication took %d iterations, aggregation %d; want more for replication",
				r.Topology, r.ReplicationIter, r.AggregationIter)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Internet2") || !strings.Contains(out, "Replication(s)") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFig10(t *testing.T) {
	res, err := Fig10(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxReduction < 1.3 {
		t.Fatalf("Fig10 reduction = %.2f, expected ≥ 1.3 (paper: ~2)", res.MaxReduction)
	}
	if res.RepDetected < res.RepMalicious || res.NoRepDetected < res.NoRepMalicious {
		t.Fatal("detections lost")
	}
	if len(res.Rep) != 12 || len(res.NoRep) != 11 {
		t.Fatalf("node counts: rep=%d norep=%d", len(res.Rep), len(res.NoRep))
	}
	out := res.Render()
	if !strings.Contains(out, "DC") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFig11Monotone(t *testing.T) {
	res, err := Fig11(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range res.Series {
		for i := 1; i < len(pts); i++ {
			if pts[i].MaxLoad > pts[i-1].MaxLoad+1e-6 {
				t.Fatalf("%s: max load must not increase with link budget: %+v", name, pts)
			}
		}
	}
	if !strings.Contains(res.Render(), "MLL=0.4") {
		t.Fatal("render")
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for name, cells := range res.Cells {
		if len(cells) != 4 {
			t.Fatalf("%s: %d cells", name, len(cells))
		}
		for _, c := range cells {
			// The DC can never be more loaded than the optimum allows: the
			// gap is at most ~0 (DC load ≤ max load overall).
			if c.Gap > 1e-6 {
				t.Fatalf("%s: positive gap %f at %+v", name, c.Gap, c.Config)
			}
		}
		// At MLL=0.1, DC=10x the DC is most under-utilized: its gap must be
		// the most negative of the four configs (paper's observation).
		low := cells[1] // {0.1, 10}
		for _, c := range cells {
			if low.Gap > c.Gap+1e-9 {
				t.Fatalf("%s: (0.1,10x) gap %.4f not the minimum (vs %+v)", name, low.Gap, c)
			}
		}
	}
	if !strings.Contains(res.Render(), "MLL=0.1,DC=2x") {
		t.Fatal("render")
	}
}

func TestFig13Ordering(t *testing.T) {
	res, err := Fig13(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for name, loads := range res.Loads {
		ing, noRep, aug, rep := loads[0], loads[1], loads[2], loads[3]
		if !(rep < noRep && noRep < ing) {
			t.Fatalf("%s: ordering broken: %v", name, loads)
		}
		if aug >= noRep {
			t.Fatalf("%s: augmentation should improve on plain on-path: %v", name, loads)
		}
		// Headline claim: replication ≥ 2× better than today's ingress.
		if ing/rep < 2 {
			t.Fatalf("%s: replication improvement only %.2fx", name, ing/rep)
		}
	}
	if !strings.Contains(res.Render(), ArchPathReplicate) {
		t.Fatal("render")
	}
}

func TestFig14Ordering(t *testing.T) {
	res, err := Fig14(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for name, loads := range res.Loads {
		noRep, one, two := loads[0], loads[1], loads[2]
		if one >= noRep {
			t.Fatalf("%s: one-hop should beat on-path: %v", name, loads)
		}
		if two > one+1e-6 {
			t.Fatalf("%s: two-hop worse than one-hop: %v", name, loads)
		}
	}
	if !strings.Contains(res.Render(), ArchTwoHop) {
		t.Fatal("render")
	}
}

func TestFig15Shape(t *testing.T) {
	res, err := Fig15(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 15 {
		t.Fatalf("runs = %d", res.Runs)
	}
	ing := res.Boxes[ArchIngress]
	dc := res.Boxes[ArchDCOnly]
	dcHop := res.Boxes[ArchDCOneHop]
	noRep := res.Boxes[ArchPathNoRep]
	// Replication-enabled architectures dominate non-replication ones on
	// medians and worst cases (Fig 15's headline).
	if dc.Median >= noRep.Median || dcHop.Median >= noRep.Median {
		t.Fatalf("medians: dc=%.3f dc+hop=%.3f norep=%.3f", dc.Median, dcHop.Median, noRep.Median)
	}
	if dc.Max >= ing.Max {
		t.Fatalf("worst case: dc=%.3f ingress=%.3f", dc.Max, ing.Max)
	}
	if !strings.Contains(res.Render(), "Median") {
		t.Fatal("render")
	}
}

func TestFig1617Shape(t *testing.T) {
	res, err := Fig1617(Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ing := res.Series[AsymIngress]
	path := res.Series[AsymPath]
	dc := res.Series[AsymDC]
	// Fig 16 shape at low overlap: Ingress misses most traffic; DC ≈ 0.
	if ing[0].MissRate < 0.5 {
		t.Fatalf("ingress miss at θ=0.1: %.3f", ing[0].MissRate)
	}
	// At θ=0.1 the MaxLinkLoad budget limits offload (the paper's Fig 17
	// note), so a small residual miss is expected; by mid overlap it must
	// vanish.
	if dc[0].MissRate > 0.2 {
		t.Fatalf("DC miss at θ=0.1: %.3f", dc[0].MissRate)
	}
	if last := len(dc) - 1; dc[last].MissRate > 0.01 {
		t.Fatalf("DC miss at high θ: %.3f", dc[last].MissRate)
	}
	for i := range dc {
		if dc[i].MissRate > path[i].MissRate+1e-9 {
			t.Fatalf("DC should dominate Path at every θ")
		}
	}
	// Overlap grows with θ.
	last := len(ing) - 1
	if ing[0].MeanOverlap >= ing[last].MeanOverlap {
		t.Fatal("achieved overlap should grow with θ")
	}
	// Path/ingress misses shrink as overlap grows.
	if path[last].MissRate > path[0].MissRate+1e-9 {
		t.Fatalf("path miss should fall with overlap: %v", path)
	}
	if !strings.Contains(res.RenderMiss(), "θ=0.1") || !strings.Contains(res.RenderLoad(), AsymDC) {
		t.Fatal("render")
	}
}

func TestFig18Tradeoff(t *testing.T) {
	res, err := Fig18(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range res.Series {
		// Load grows (weakly) with β; comm falls (weakly).
		for i := 1; i < len(pts); i++ {
			if pts[i].LoadCost < pts[i-1].LoadCost-1e-6 {
				t.Fatalf("%s: load should rise with β: %+v", name, pts)
			}
			if pts[i].CommCost > pts[i-1].CommCost+1e-6 {
				t.Fatalf("%s: comm should fall with β: %+v", name, pts)
			}
		}
		beta, best := res.BestBeta(name)
		if beta == 0 {
			t.Fatalf("%s: no best β", name)
		}
		// The paper: some β gives both normalized costs below ~0.6.
		if best.NormLoad > 0.8 && best.NormComm > 0.8 {
			t.Fatalf("%s: no good operating point: %+v", name, best)
		}
	}
	if !strings.Contains(res.Render(), "normalized") {
		t.Fatal("render")
	}
}

func TestFig19Improvement(t *testing.T) {
	rows, err := Fig19(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ImprovementRatio <= 1 {
			t.Fatalf("%s: aggregation should reduce imbalance, got %.2fx", r.Topology, r.ImprovementRatio)
		}
	}
	if !strings.Contains(RenderFig19(rows), "Improvement") {
		t.Fatal("render")
	}
}

func TestPlacement(t *testing.T) {
	rows, err := Placement(Options{Topologies: []string{"Internet2"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Loads) != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	// The paper: the gap between strategies is small. Allow 2× slack.
	min, max := rows[0].Loads[0], rows[0].Loads[0]
	for _, v := range rows[0].Loads {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max > 2*min {
		t.Fatalf("placement gap too large: %v", rows[0].Loads)
	}
	if !strings.Contains(RenderPlacement(rows), "most-observing") {
		t.Fatal("render")
	}
}

func TestUnknownTopology(t *testing.T) {
	if _, err := Table1(Options{Topologies: []string{"nope"}}); err == nil {
		t.Fatal("want error for unknown topology")
	}
}

func TestSolveArchUnknown(t *testing.T) {
	s, err := scenarioFor("Internet2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solveArch(Options{}, s, "bogus", 0.4, 10); err == nil {
		t.Fatal("want error for unknown architecture")
	}
}

func TestOrderedKeys(t *testing.T) {
	m := map[string]int{"NTT": 1, "Internet2": 2, "zzz": 3, "aaa": 4}
	got := orderedKeys(m)
	want := []string{"Internet2", "NTT", "aaa", "zzz"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRobustness(t *testing.T) {
	res, err := Robustness(Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracle := res.PeakLoad[RobustReoptimized]
	mean := res.PeakLoad[RobustMeanTM]
	p80 := res.PeakLoad[RobustP80TM]
	if oracle.Median <= 0 || mean.Median <= 0 || p80.Median <= 0 {
		t.Fatal("empty peak load stats")
	}
	// The oracle (re-optimizing every epoch, §3) dominates any fixed
	// configuration on the median and the worst case.
	if oracle.Median > mean.Median+1e-9 || oracle.Median > p80.Median+1e-9 {
		t.Fatalf("oracle median %.3f must dominate fixed configs (%.3f, %.3f)",
			oracle.Median, mean.Median, p80.Median)
	}
	if oracle.Max > mean.Max+1e-9 {
		t.Fatalf("oracle worst case %.3f must dominate fixed mean config %.3f", oracle.Max, mean.Max)
	}
	// Stale configurations degrade gracefully rather than collapsing: the
	// fixed mean config's median stays within ~2× of the oracle's.
	if mean.Median > 2*oracle.Median {
		t.Fatalf("stale config degrades too much: %.3f vs oracle %.3f", mean.Median, oracle.Median)
	}
	if !strings.Contains(res.Render(), "p80") {
		t.Fatal("render")
	}
}

func TestAblationAgreesOnOptimum(t *testing.T) {
	rows, err := Ablation(Options{Topologies: []string{"Internet2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	ref := rows[0].Objective
	for _, r := range rows {
		if d := r.Objective - ref; d > 1e-5 || d < -1e-5 {
			t.Fatalf("%s: objective %.8f deviates from reference %.8f", r.Variant, r.Objective, ref)
		}
		// Re-solving from the reference optimal basis legitimately takes
		// zero pivots; every other variant must actually iterate.
		if r.Iterations <= 0 && r.Variant != "warm re-solve (basis reuse)" {
			t.Fatalf("%s: no iterations recorded", r.Variant)
		}
	}
	// The crash basis must actually save work vs a cold start, and the warm
	// re-solve must beat everything.
	var crash, cold, warm int
	for _, r := range rows {
		switch r.Variant {
		case "crash+atUpper (default)":
			crash = r.Iterations
		case "cold start":
			cold = r.Iterations
		case "warm re-solve (basis reuse)":
			warm = r.Iterations
		}
	}
	if crash >= cold {
		t.Fatalf("crash basis (%d iters) should beat cold start (%d iters)", crash, cold)
	}
	if warm >= crash {
		t.Fatalf("warm re-solve (%d iters) should beat the crash basis (%d iters)", warm, crash)
	}
	if !strings.Contains(RenderAblation(rows), "cold start") {
		t.Fatal("render")
	}
}

func TestSigmaSweep(t *testing.T) {
	r, err := SigmaSweep(Options{Quick: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WorstIngress) != 4 {
		t.Fatalf("points = %d", len(r.WorstIngress))
	}
	for i := range r.Sigmas {
		if r.WorstReplicate[i] >= r.WorstIngress[i] {
			t.Fatalf("σ=%.2f: replication must dominate ingress in worst case", r.Sigmas[i])
		}
	}
	// More variability → worse ingress worst case.
	if r.WorstIngress[len(r.WorstIngress)-1] <= r.WorstIngress[0] {
		t.Fatal("worst ingress load should grow with σ")
	}
	if !strings.Contains(r.Render(), "Ratio") {
		t.Fatal("render")
	}
}

// TestFootprintSensitivity validates the §3 claim: approximate footprint
// estimates still deliver most of the benefit.
func TestFootprintSensitivity(t *testing.T) {
	res, err := FootprintSensitivity(Options{Quick: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		// Perfect estimates lower-bound the realized load.
		if p.RealizedMedian < p.Optimal-1e-6 {
			t.Fatalf("σ=%.2f: realized %.4f below optimum %.4f", p.NoiseSigma, p.RealizedMedian, p.Optimal)
		}
		// The paper's claim: even ±50% noisy estimates keep the deployment
		// far below the ingress-only baseline of 1.0.
		if p.NoiseSigma <= 0.5 && p.RealizedMax > 0.6 {
			t.Fatalf("σ=%.2f: realized worst %.4f too close to ingress baseline", p.NoiseSigma, p.RealizedMax)
		}
	}
	// Degradation grows with noise.
	if res.Points[0].RealizedMedian > res.Points[len(res.Points)-1].RealizedMedian+1e-6 {
		t.Fatal("more noise should not improve realized load")
	}
	if !strings.Contains(res.Render(), "Realized median") {
		t.Fatal("render")
	}
}

// TestWarmVsColdRenderIdentical is the determinism contract of the
// warm-start layer: chaining bases across sweep points must not change a
// single rendered byte relative to solving every point from scratch.
func TestWarmVsColdRenderIdentical(t *testing.T) {
	warm := Options{Quick: true, Seed: 1, Topologies: []string{"Internet2"}}
	cold := warm
	cold.ColdLP = true

	renders := map[string]func(Options) (string, error){
		"fig11": func(o Options) (string, error) {
			r, err := Fig11(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"fig15": func(o Options) (string, error) {
			r, err := Fig15(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"fig18": func(o Options) (string, error) {
			r, err := Fig18(o)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
	}
	for name, render := range renders {
		t.Run(name, func(t *testing.T) {
			w, err := render(warm)
			if err != nil {
				t.Fatal(err)
			}
			c, err := render(cold)
			if err != nil {
				t.Fatal(err)
			}
			if w != c {
				t.Fatalf("warm and cold renders differ:\nwarm:\n%s\ncold:\n%s", w, c)
			}
		})
	}
}
