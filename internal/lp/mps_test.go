package lp

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestMPSRoundTripSmall(t *testing.T) {
	p := NewProblem("demo")
	x := p.AddVar(0, 3, -1, "x")
	// Two columns in no row and out of the objective: one appears only
	// under BOUNDS, the other nowhere but its own COLUMNS line.
	p.AddVar(0, 7, 0, "boundsonly")
	y := p.AddVar(-2, 2, -2, "y")
	z := p.AddVar(-Inf, Inf, 0.5, "z")
	w := p.AddVar(1, 1, 4, "w")
	p.AddVar(0, Inf, 0, "unused")
	r1 := p.AddRow(-Inf, 4, "le")
	p.SetCoef(r1, x, 1)
	p.SetCoef(r1, y, 1)
	r2 := p.AddRow(1, 5, "rng")
	p.SetCoef(r2, x, 2)
	p.SetCoef(r2, z, 1)
	r3 := p.AddRow(2, 2, "eq")
	p.SetCoef(r3, y, 1)
	p.SetCoef(r3, w, 1)

	var buf bytes.Buffer
	if err := WriteMPS(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadMPS(&buf)
	if err != nil {
		t.Fatalf("ReadMPS: %v\n%s", err, buf.String())
	}
	if q.NumVars() != p.NumVars() || q.NumRows() != p.NumRows() {
		t.Fatalf("shape mismatch: %s vs %s", q.Stats(), p.Stats())
	}
	for j := 0; j < p.NumVars(); j++ {
		plo, phi := p.VarBounds(Var(j))
		qlo, qhi := q.VarBounds(Var(j))
		if !exactEq(plo, qlo) || !exactEq(phi, qhi) || !exactEq(p.Obj(Var(j)), q.Obj(Var(j))) {
			t.Errorf("column %d: bounds [%g, %g] obj %g read back as [%g, %g] obj %g",
				j, plo, phi, p.Obj(Var(j)), qlo, qhi, q.Obj(Var(j)))
		}
	}
	a := Solve(p, Options{})
	b := Solve(q, Options{})
	if a.Status != b.Status {
		t.Fatalf("status %v vs %v", a.Status, b.Status)
	}
	if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-7 {
		t.Fatalf("objective %g vs %g", a.Objective, b.Objective)
	}
}

// TestMPSRoundTripRandom: any random problem must round-trip to the same
// optimum (or the same status).
func TestMPSRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng)
		var buf bytes.Buffer
		if err := WriteMPS(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := ReadMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		a := Solve(p, Options{})
		b := Solve(q, Options{})
		if a.Status != b.Status {
			t.Fatalf("trial %d: status %v vs %v\n%s", trial, a.Status, b.Status, buf.String())
		}
		if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-6*(1+math.Abs(a.Objective)) {
			t.Fatalf("trial %d: objective %g vs %g", trial, a.Objective, b.Objective)
		}
	}
}

func TestReadMPSHandwritten(t *testing.T) {
	src := `
* a classic two-variable problem
NAME tiny
ROWS
 N obj
 L c1
 G c2
COLUMNS
 x obj -1 c1 1
 x c2 1
 y obj -2
 y c1 1 c2 -1
RHS
 RHS c1 4 c2 -1
BOUNDS
 UP BND x 3
 UP BND y 2
ENDATA
`
	p, err := ReadMPS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sol := Solve(p, Options{})
	// min -x-2y s.t. x+y≤4, x−y≥−1, 0≤x≤3, 0≤y≤2 → x=2,y=2 → -6.
	requireOptimal(t, sol, -6, 1e-7)
}

// readMPSErrorCases are inputs ReadMPS must reject, by name. They also
// seed FuzzReadMPS.
var readMPSErrorCases = map[string]string{
	"missing endata":   "NAME x\nROWS\n N obj\n",
	"bad row type":     "ROWS\n Q r1\nENDATA\n",
	"unknown row":      "ROWS\n N obj\nCOLUMNS\n x zz 1\nENDATA\n",
	"bad number":       "ROWS\n N obj\n L r1\nCOLUMNS\n x r1 abc\nENDATA\n",
	"data pre-section": " x r1 1\nENDATA\n",
	"objsense max":     "OBJSENSE\n MAX\nENDATA\n",
	"bad bound kind":   "ROWS\n N obj\nBOUNDS\n XX BND x 1\nENDATA\n",
	"objsense max hdr": "OBJSENSE MAX\nROWS\n N obj\nENDATA\n",
	"nan objective":    "ROWS\n N obj\nCOLUMNS\n x obj NaN\nENDATA\n",
	"inf coefficient":  "ROWS\n N obj\n L r1\nCOLUMNS\n x r1 +Inf\nENDATA\n",
	"nan upper bound":  "ROWS\n N obj\nCOLUMNS\n x obj 1\nBOUNDS\n UP BND x nan\nENDATA\n",
	"inf lower bound":  "ROWS\n N obj\nCOLUMNS\n x obj 1\nBOUNDS\n LO BND x -inf\nENDATA\n",
	"nan rhs":          "ROWS\n N obj\n G r1\nCOLUMNS\n x r1 1\nRHS\n RHS r1 NaN\nENDATA\n",
	"inf range":        "ROWS\n N obj\n G r1\nCOLUMNS\n x r1 1\nRANGES\n RNG r1 Infinity\nENDATA\n",
	"objective sum":    "ROWS\n N obj\nCOLUMNS\n x obj 1e308\n x obj 1e308\nENDATA\n",
	"coefficient sum":  "ROWS\n N obj\n L r1\nCOLUMNS\n x r1 -1e308\n x r1 -1e308\nENDATA\n",
	"duplicate row":    "ROWS\n N obj\n L r1\n G r1\nCOLUMNS\n x r1 1\nENDATA\n",
	"row shadows obj":  "ROWS\n N obj\n E obj\nENDATA\n",
}

func TestReadMPSErrors(t *testing.T) {
	for name, src := range readMPSErrorCases {
		_, err := ReadMPS(strings.NewReader(src))
		if err == nil {
			t.Errorf("%s: expected error", name)
		} else if name != "missing endata" && !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: error %q names no line", name, err)
		}
	}
}

func TestWriteMPSFreeRow(t *testing.T) {
	p := NewProblem("freerow")
	x := p.AddVar(0, 1, 1, "x")
	r := p.AddRow(-Inf, Inf, "free")
	p.SetCoef(r, x, 1)
	var buf bytes.Buffer
	if err := WriteMPS(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadMPS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 1 {
		t.Fatalf("free row lost: %d rows", q.NumRows())
	}
	lo, hi := q.RowBounds(0)
	if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Fatalf("free row bounds %g %g", lo, hi)
	}
}

// FuzzReadMPS feeds ReadMPS arbitrary input. It must not panic, and a
// problem it accepts must survive WriteMPS and ReadMPS again: the same
// shape, the same bounds and objective per index, and the same compiled
// columns. Values compare exactly; NaN is rejected on input, so that is
// bit-equality up to the sign of zero.
func FuzzReadMPS(f *testing.F) {
	files, err := filepath.Glob("testdata/knownopt_*.mps")
	if err != nil || len(files) == 0 {
		f.Fatalf("no knownopt fixtures: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	names := make([]string, 0, len(readMPSErrorCases))
	for name := range readMPSErrorCases {
		names = append(names, name)
	}
	sort.Strings(names) // fixed seed numbering
	for _, name := range names {
		f.Add([]byte(readMPSErrorCases[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadMPS(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMPS(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := ReadMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written problem does not read back: %v\n%s", err, buf.String())
		}
		if q.NumVars() != p.NumVars() || q.NumRows() != p.NumRows() {
			t.Fatalf("shape %d×%d read back as %d×%d\n%s", p.NumRows(), p.NumVars(), q.NumRows(), q.NumVars(), buf.String())
		}
		for i := 0; i < p.NumRows(); i++ {
			plo, phi := p.RowBounds(Row(i))
			qlo, qhi := q.RowBounds(Row(i))
			if !exactEq(plo, qlo) || !exactEq(phi, qhi) {
				t.Fatalf("row %d: [%g, %g] read back as [%g, %g]\n%s", i, plo, phi, qlo, qhi, buf.String())
			}
		}
		q.compile()
		for j := 0; j < p.NumVars(); j++ {
			plo, phi := p.VarBounds(Var(j))
			qlo, qhi := q.VarBounds(Var(j))
			if !exactEq(plo, qlo) || !exactEq(phi, qhi) || !exactEq(p.Obj(Var(j)), q.Obj(Var(j))) {
				t.Fatalf("column %d: bounds [%g, %g] obj %g read back as [%g, %g] obj %g\n%s",
					j, plo, phi, p.Obj(Var(j)), qlo, qhi, q.Obj(Var(j)), buf.String())
			}
			prows, pvals := p.column(j)
			qrows, qvals := q.column(j)
			if len(prows) != len(qrows) {
				t.Fatalf("column %d: %d entries read back as %d\n%s", j, len(prows), len(qrows), buf.String())
			}
			for k := range prows {
				if prows[k] != qrows[k] || !exactEq(pvals[k], qvals[k]) {
					t.Fatalf("column %d entry %d: r%d=%g read back as r%d=%g", j, k, prows[k], pvals[k], qrows[k], qvals[k])
				}
			}
		}
	})
}
