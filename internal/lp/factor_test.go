package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// denseSolve solves A x = b by Gaussian elimination with partial pivoting,
// used as an oracle for Factor.
func denseSolve(a [][]float64, b []float64) []float64 {
	m := len(a)
	A := make([][]float64, m)
	for i := range A {
		A[i] = append([]float64(nil), a[i]...)
		A[i] = append(A[i], b[i])
	}
	for c := 0; c < m; c++ {
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(A[r][c]) > math.Abs(A[p][c]) {
				p = r
			}
		}
		A[c], A[p] = A[p], A[c]
		for r := c + 1; r < m; r++ {
			f := A[r][c] / A[c][c]
			if f == 0 {
				continue
			}
			for k := c; k <= m; k++ {
				A[r][k] -= f * A[c][k]
			}
		}
	}
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		s := A[i][m]
		for k := i + 1; k < m; k++ {
			s -= A[i][k] * x[k]
		}
		x[i] = s / A[i][i]
	}
	return x
}

// randomSparseMatrix builds an m×m matrix that is nonsingular with high
// probability: a permuted diagonal plus random off-diagonal entries.
func randomSparseMatrix(rng *rand.Rand, m int) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	perm := rng.Perm(m)
	for i := 0; i < m; i++ {
		a[i][perm[i]] = 1 + rng.Float64()*4
	}
	extra := m * 2
	for k := 0; k < extra; k++ {
		a[rng.Intn(m)][rng.Intn(m)] += rng.NormFloat64()
	}
	return a
}

func columnsOf(a [][]float64) basisColumn {
	m := len(a)
	return func(k int) ([]int32, []float64) {
		var rows []int32
		var vals []float64
		for i := 0; i < m; i++ {
			if a[i][k] != 0 {
				rows = append(rows, int32(i))
				vals = append(vals, a[i][k])
			}
		}
		return rows, vals
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestFactorFtranBtranRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(25)
		a := randomSparseMatrix(rng, m)
		var f Factor
		if err := f.Factorize(m, columnsOf(a), 1e-10); err != nil {
			t.Fatalf("trial %d: factorize: %v", trial, err)
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := denseSolve(a, b)
		got := append([]float64(nil), b...)
		f.Ftran(got)
		if d := maxAbsDiff(got, want); d > 1e-6 {
			t.Fatalf("trial %d (m=%d): Ftran diff %g", trial, m, d)
		}
		// Bᵀy = c: oracle solves with transposed matrix.
		at := make([][]float64, m)
		for i := range at {
			at[i] = make([]float64, m)
			for j := 0; j < m; j++ {
				at[i][j] = a[j][i]
			}
		}
		wantY := denseSolve(at, b)
		gotY := append([]float64(nil), b...)
		f.Btran(gotY)
		if d := maxAbsDiff(gotY, wantY); d > 1e-6 {
			t.Fatalf("trial %d (m=%d): Btran diff %g", trial, m, d)
		}
	}
}

func TestFactorSingular(t *testing.T) {
	// Two identical columns.
	a := [][]float64{
		{1, 1, 0},
		{2, 2, 1},
		{0, 0, 3},
	}
	var f Factor
	err := f.Factorize(3, columnsOf(a), 1e-10)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	var se *SingularError
	if !errors.As(err, &se) {
		t.Fatalf("want *SingularError, got %T", err)
	}
	if len(se.FailedPositions) != 1 || len(se.UnpivotedRows) != 1 {
		t.Fatalf("unexpected deficiency detail: %+v", se)
	}
}

func TestFactorZeroMatrix(t *testing.T) {
	a := [][]float64{{0, 0}, {0, 0}}
	var f Factor
	if err := f.Factorize(2, columnsOf(a), 1e-10); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestFactorUpdateMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(20)
		a := randomSparseMatrix(rng, m)
		var f Factor
		if err := f.Factorize(m, columnsOf(a), 1e-10); err != nil {
			t.Fatalf("factorize: %v", err)
		}
		// Replace a few columns one at a time via eta updates.
		for upd := 0; upd < 3; upd++ {
			// Retry column generation until B⁻¹a has a healthy pivot at r:
			// a zero there means the replacement would be singular, which
			// the simplex never attempts.
			var r int
			var newCol, w []float64
			for {
				r = rng.Intn(m)
				newCol = make([]float64, m)
				for i := range newCol {
					if rng.Intn(3) == 0 {
						newCol[i] = rng.NormFloat64()
					}
				}
				newCol[r] += 2 + rng.Float64()
				w = append([]float64(nil), newCol...)
				f.Ftran(w)
				if math.Abs(w[r]) > 1e-3 {
					break
				}
			}
			if err := f.Update(r, w, appendNonzeros(nil, w), 1e-10); err != nil {
				t.Fatalf("update: %v", err)
			}
			for i := 0; i < m; i++ {
				a[i][r] = newCol[i]
			}
			// Check Ftran and Btran against a dense solve of the updated matrix.
			b := make([]float64, m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := denseSolve(a, b)
			got := append([]float64(nil), b...)
			f.Ftran(got)
			if d := maxAbsDiff(got, want); d > 1e-5 {
				t.Fatalf("trial %d upd %d: Ftran after update diff %g", trial, upd, d)
			}
			at := make([][]float64, m)
			for i := range at {
				at[i] = make([]float64, m)
				for j := 0; j < m; j++ {
					at[i][j] = a[j][i]
				}
			}
			wantY := denseSolve(at, b)
			gotY := append([]float64(nil), b...)
			f.Btran(gotY)
			if d := maxAbsDiff(gotY, wantY); d > 1e-5 {
				t.Fatalf("trial %d upd %d: Btran after update diff %g", trial, upd, d)
			}
		}
		if f.NumEtas() != 3 {
			t.Fatalf("want 3 etas, got %d", f.NumEtas())
		}
	}
}

func TestFactorUpdateRejectsTinyPivot(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	var f Factor
	if err := f.Factorize(2, columnsOf(a), 1e-10); err != nil {
		t.Fatal(err)
	}
	w := []float64{0, 1e-12}
	if err := f.Update(1, w, appendNonzeros(nil, w), 1e-8); err == nil {
		t.Fatal("want error for tiny eta pivot")
	}
}

func BenchmarkFactorize500(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := 500
	a := randomSparseMatrix(rng, m)
	col := columnsOf(a)
	// Pre-extract columns so the benchmark measures factorization only.
	rows := make([][]int32, m)
	vals := make([][]float64, m)
	for k := 0; k < m; k++ {
		r, v := col(k)
		rows[k] = r
		vals[k] = v
	}
	var f Factor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Factorize(m, func(k int) ([]int32, []float64) { return rows[k], vals[k] }, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}

// factorizeReference is the executable spec of Factor.Factorize: the dense
// left-looking sweep the package shipped before the factorization went
// sparse. For every column it visits every pivot position and every row, so
// its order of operations is plain to read: updates land in ascending pivot
// position, U is emitted in ascending pivot position, L in ascending
// original row, the first row of maximal magnitude is the pivot. Factorize
// must produce the same factors to the bit.
func (f *Factor) factorizeReference(m int, col basisColumn, pivotTol float64) error {
	f.m = m
	f.etas = f.etas[:0]
	f.lPtr = append(f.lPtr[:0], 0)
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uPtr = append(f.uPtr[:0], 0)
	f.uRow = f.uRow[:0]
	f.uVal = f.uVal[:0]
	f.udiag = f.udiag[:0]
	if cap(f.prow) < m {
		f.prow = make([]int32, m)
		f.pinv = make([]int32, m)
		f.cq = make([]int32, m)
		f.work = make([]float64, m)
		f.work2 = make([]float64, m)
	}
	f.prow = f.prow[:m]
	f.pinv = f.pinv[:m]
	f.cq = f.cq[:m]
	f.work = f.work[:m]
	f.work2 = f.work2[:m]
	for i := range f.pinv {
		f.pinv[i] = -1
		f.work[i] = 0
	}

	// Static column order: ascending nonzero count, stable on index, so the
	// near-triangular bases produced by the NIDS formulations factorize with
	// minimal fill.
	order := make([]int32, m)
	counts := make([]int32, m)
	for k := 0; k < m; k++ {
		order[k] = int32(k)
		rows, _ := col(k)
		counts[k] = int32(len(rows))
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] < counts[order[b]] })

	x := f.work // dense accumulator, kept zeroed between columns
	var failed []int
	npiv := 0
	for _, kc := range order {
		rows, vals := col(int(kc))
		// Scatter the column and play back L (columns already pivoted):
		// a standard left-looking update using the dense accumulator.
		for i, r := range rows {
			x[r] = vals[i]
		}
		// Forward eliminate in pivot order: for each pivot position t in
		// increasing order, if x at that pivot row is nonzero, apply L column t.
		for t := 0; t < npiv; t++ {
			pr := f.prow[t]
			xv := x[pr]
			if xv == 0 {
				continue
			}
			s, e := f.lPtr[t], f.lPtr[t+1]
			for q := s; q < e; q++ {
				// During factorization lRow still holds original row
				// indices; they are remapped to pivot coordinates once all
				// pivots are known.
				x[f.lRow[q]] -= f.lVal[q] * xv
			}
		}
		// Partition into U part (pivoted rows) and candidate pivot rows.
		var best int32 = -1
		bestAbs := 0.0
		for i := 0; i < m; i++ {
			if x[i] == 0 {
				continue
			}
			if f.pinv[i] < 0 {
				if a := math.Abs(x[i]); a > bestAbs {
					bestAbs = a
					best = int32(i)
				}
			}
		}
		if best < 0 || bestAbs < pivotTol {
			// Deficient column: clear and record.
			for i := 0; i < m; i++ {
				x[i] = 0
			}
			failed = append(failed, int(kc))
			continue
		}
		k := npiv
		// Emit U column k: entries at already-pivoted rows.
		for t := 0; t < k; t++ {
			pr := f.prow[t]
			if v := x[pr]; v != 0 {
				f.uRow = append(f.uRow, int32(t))
				f.uVal = append(f.uVal, v)
				x[pr] = 0
			}
		}
		f.uPtr = append(f.uPtr, int32(len(f.uRow)))
		piv := x[best]
		f.udiag = append(f.udiag, piv)
		x[best] = 0
		// Emit L column k: remaining unpivoted rows, scaled by pivot.
		for i := 0; i < m; i++ {
			if x[i] == 0 {
				continue
			}
			// pivot coordinate of row i is not yet assigned; store the
			// original row for now and fix up below using a parallel list.
			f.lRow = append(f.lRow, int32(i)) // original row, remapped later
			f.lVal = append(f.lVal, x[i]/piv)
			x[i] = 0
		}
		f.lPtr = append(f.lPtr, int32(len(f.lRow)))
		f.prow[k] = best
		f.pinv[best] = int32(k)
		f.cq[k] = kc
		npiv++
	}
	if npiv < m {
		var unp []int
		for i := 0; i < m; i++ {
			if f.pinv[i] < 0 {
				unp = append(unp, i)
			}
		}
		return &SingularError{FailedPositions: failed, UnpivotedRows: unp}
	}
	// Remap L row indices from original rows to pivot coordinates. Entries
	// were appended while their rows were still unpivoted, so they hold
	// original indices; every row has a pivot position now.
	for q := range f.lRow {
		f.lRow[q] = f.pinv[f.lRow[q]]
	}
	return nil
}

// diffFactors describes the first field in which two factorizations differ
// (floats compared by bit pattern), or returns "" when they are identical.
func diffFactors(got, want *Factor) string {
	ints := func(name string, a, b []int32) string {
		if !slices.Equal(a, b) {
			return fmt.Sprintf("%s: got %v want %v", name, a, b)
		}
		return ""
	}
	floats := func(name string, a, b []float64) string {
		if len(a) != len(b) {
			return fmt.Sprintf("%s: got %d entries want %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Sprintf("%s[%d]: got %v (%#x) want %v (%#x)", name, i,
					a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
		return ""
	}
	for _, d := range []string{
		ints("lPtr", got.lPtr, want.lPtr), ints("lRow", got.lRow, want.lRow), floats("lVal", got.lVal, want.lVal),
		ints("uPtr", got.uPtr, want.uPtr), ints("uRow", got.uRow, want.uRow), floats("uVal", got.uVal, want.uVal),
		floats("udiag", got.udiag, want.udiag),
		ints("prow", got.prow, want.prow), ints("pinv", got.pinv, want.pinv), ints("cq", got.cq, want.cq),
	} {
		if d != "" {
			return d
		}
	}
	return ""
}

// factorizeBoth runs Factorize on got and factorizeReference on want over
// the same columns and describes the first disagreement: in the singularity
// report, or in any stored field of the factors (compared on failure too —
// the partial factors of a singular basis are deterministic as well).
func factorizeBoth(got, want *Factor, m int, col basisColumn, pivotTol float64) (diff string, err error) {
	err = got.Factorize(m, col, pivotTol)
	refErr := want.factorizeReference(m, col, pivotTol)
	var se, refSE *SingularError
	switch {
	case (err == nil) != (refErr == nil):
		return fmt.Sprintf("error: got %v want %v", err, refErr), err
	case err != nil && (!errors.As(err, &se) || !errors.As(refErr, &refSE)):
		return fmt.Sprintf("error type: got %T want %T", err, refErr), err
	case err != nil && !slices.Equal(se.FailedPositions, refSE.FailedPositions):
		return fmt.Sprintf("FailedPositions: got %v want %v", se.FailedPositions, refSE.FailedPositions), err
	case err != nil && !slices.Equal(se.UnpivotedRows, refSE.UnpivotedRows):
		return fmt.Sprintf("UnpivotedRows: got %v want %v", se.UnpivotedRows, refSE.UnpivotedRows), err
	}
	return diffFactors(got, want), err
}

// randomMatrix fills an m×m matrix with about perCol entries per column
// drawn by gen, without forcing a nonzero diagonal: singular outcomes are
// part of the input space.
func randomMatrix(rng *rand.Rand, m int, perCol float64, gen func() float64) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	for k := int(perCol * float64(m)); k > 0; k-- {
		a[rng.Intn(m)][rng.Intn(m)] = gen()
	}
	return a
}

func TestFactorizeMatchesReference(t *testing.T) {
	const tol = 1e-10
	check := func(t *testing.T, name string, a [][]float64, pivotTol float64) error {
		t.Helper()
		var got, want Factor
		diff, err := factorizeBoth(&got, &want, len(a), columnsOf(a), pivotTol)
		if diff != "" {
			t.Fatalf("%s (m=%d): %s", name, len(a), diff)
		}
		return err
	}

	t.Run("random densities", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		solved, singular := 0, 0
		for _, perCol := range []float64{0.5, 1, 2, 4, 8, 20} {
			for trial := 0; trial < 60; trial++ {
				m := 1 + rng.Intn(60)
				a := randomMatrix(rng, m, perCol, rng.NormFloat64)
				if trial%2 == 0 { // a permuted diagonal makes most of these nonsingular
					for i, j := range rng.Perm(m) {
						a[i][j] += 1 + 4*rng.Float64()
					}
				}
				if check(t, fmt.Sprintf("perCol=%g trial %d", perCol, trial), a, tol) == nil {
					solved++
				} else {
					singular++
				}
			}
		}
		if solved < 50 || singular < 50 {
			t.Fatalf("inputs are lopsided: %d nonsingular, %d singular", solved, singular)
		}
	})

	// Small integers make equal magnitudes and exact cancellation the norm:
	// x − l·u lands on exactly 0 inside the pattern, and the pivot search
	// sees ties between a fill-in row (discovered late, low index) and an
	// original entry (discovered early, high index), which only the
	// lowest-row tie-break resolves the way the ascending dense scan does.
	t.Run("ties and cancellation", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		small := func() float64 { return float64(rng.Intn(5) - 2) }
		for trial := 0; trial < 400; trial++ {
			m := 2 + rng.Intn(30)
			a := randomMatrix(rng, m, 1+3*rng.Float64(), small)
			for i := 0; i < m; i++ {
				if rng.Intn(3) > 0 {
					a[i][i] = 1
				}
			}
			check(t, fmt.Sprintf("trial %d", trial), a, tol)
		}
		// The tie in column 1 after eliminating column 0 is between row 1
		// (fill: 0 − 1·(−1) = 1) and row 2 (original 1): row 1 must win.
		check(t, "fill-in tie", [][]float64{
			{2, -2, 0},
			{1, 0, 0},
			{0, 1, 1},
		}, tol)
		// Column 1 cancels to exactly zero on its only unpivoted row.
		if err := check(t, "cancelled column", [][]float64{
			{1, 1, 0},
			{1, 1, 0},
			{0, 0, 1},
		}, tol); !errors.Is(err, ErrSingular) {
			t.Fatalf("cancelled column: want ErrSingular, got %v", err)
		}
	})

	t.Run("rank deficient", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 100; trial++ {
			m := 3 + rng.Intn(30)
			a := randomSparseMatrix(rng, m)
			for d := 1 + rng.Intn(3); d > 0; d-- {
				switch src, dst := rng.Intn(m), rng.Intn(m); rng.Intn(4) {
				case 0: // duplicate column
					for i := range a {
						a[i][dst] = a[i][src]
					}
				case 1: // empty column
					for i := range a {
						a[i][dst] = 0
					}
				case 2: // empty row: structurally singular
					for j := range a[dst] {
						a[dst][j] = 0
					}
				case 3: // column dst = 2·column src − column (src+1)
					for i := range a {
						a[i][dst] = 2*a[i][src] - a[i][(src+1)%m]
					}
				}
			}
			check(t, fmt.Sprintf("trial %d", trial), a, tol)
		}
		if err := check(t, "zero matrix", [][]float64{{0, 0}, {0, 0}}, tol); !errors.Is(err, ErrSingular) {
			t.Fatalf("zero matrix: want ErrSingular, got %v", err)
		}
	})

	t.Run("pivot tolerance", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		const ptol = 1e-3
		edge := []float64{ptol, math.Nextafter(ptol, 0), math.Nextafter(ptol, 1), -ptol, 0.999 * ptol, 1.001 * ptol}
		near := func() float64 {
			if rng.Intn(3) == 0 {
				return rng.NormFloat64()
			}
			return edge[rng.Intn(len(edge))]
		}
		rejected := 0
		for trial := 0; trial < 300; trial++ {
			m := 1 + rng.Intn(20)
			if check(t, fmt.Sprintf("trial %d", trial), randomMatrix(rng, m, 1+2*rng.Float64(), near), ptol) != nil {
				rejected++
			}
		}
		if rejected == 0 || rejected == 300 {
			t.Fatalf("%d of 300 inputs rejected: the tolerance edge is not exercised", rejected)
		}
		if err := check(t, "just below", [][]float64{{math.Nextafter(ptol, 0)}}, ptol); !errors.Is(err, ErrSingular) {
			t.Fatalf("pivot just below tolerance: want ErrSingular, got %v", err)
		}
		if err := check(t, "at tolerance", [][]float64{{ptol}}, ptol); err != nil {
			t.Fatalf("pivot at tolerance: %v", err)
		}
	})

	// One Factor serves every refactorization of a solve and, through the
	// solver handles, LPs of different sizes; scratch left over from a
	// larger or a singular factorization must not leak into the next.
	t.Run("reuse across sizes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		var got, want Factor
		for step, m := range []int{40, 5, 70, 1, 30, 30, 2, 90, 12} {
			a := randomSparseMatrix(rng, m)
			if step%3 == 1 { // leave a failed factorization behind
				for i := range a {
					a[i][0] = 0
				}
			}
			if diff, _ := factorizeBoth(&got, &want, m, columnsOf(a), tol); diff != "" {
				t.Fatalf("step %d (m=%d): %s", step, m, diff)
			}
		}
	})
}
