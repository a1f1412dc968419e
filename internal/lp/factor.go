package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Factor is an LU factorization of a square sparse basis matrix, augmented
// with a product-form eta file so that the represented matrix can track
// simplex basis changes between refactorizations.
//
// Factorize is a Gilbert–Peierls left-looking LU with partial pivoting and a
// static column order (ascending nonzero count, ties by basis position).
// Each column is scattered into a dense accumulator whose nonzero pattern is
// kept in a list; the already-pivoted rows of that pattern are eliminated in
// ascending pivot position through a min-heap (an L column only reaches rows
// pivoted later than itself, so positions discovered during the sweep never
// precede the one being eliminated); the pivot is the largest magnitude over
// the unpivoted part of the pattern, the lowest row index winning ties; and
// only the pattern is cleared afterwards. The cost per column is therefore
// proportional to the arithmetic performed plus p·log p for a pattern of p
// rows, not to the dimension m.
//
// Ordering guarantees, which the solver's reproducibility rests on (the same
// basis always yields the same bits, whatever m and whatever ran before):
// every accumulator entry receives its updates in ascending pivot position;
// a U column is stored in ascending pivot position, which is the order Btran
// accumulates it in; an L column is stored in ascending original row, again
// Btran's accumulation order; and exact zeros produced by cancellation are
// dropped from both factors. factorizeReference in factor_test.go is the
// executable spec: a dense sweep over every position and row that this
// implementation must match bit for bit.
//
// Solves use dense work vectors, which is the right tradeoff for the basis
// sizes appearing in this repository (hundreds to a few thousand rows).
type Factor struct {
	m int

	// L: unit lower triangular, subdiagonal entries only, column storage,
	// row/column indices in pivot coordinates.
	lPtr []int32
	lRow []int32
	lVal []float64

	// U: upper triangular including diagonal, column storage, pivot coords.
	uPtr  []int32
	uRow  []int32
	uVal  []float64
	udiag []float64

	// prow[k] = original row index pivoted at position k.
	// pinv[i]  = pivot position of original row i.
	// cq[k]    = position-in-basis of the column processed at position k.
	prow, pinv, cq []int32

	// eta file: each eta records a basis change replacing basis position r
	// with a column whose FTRAN image was w. Their off-pivot entries live in
	// the etaRow/etaVal arena, which Factorize resets.
	etas   []eta
	etaRow []int32
	etaVal []float64

	// Solve scratch (work2) and Factorize scratch: work is the dense
	// accumulator and inPat its pattern membership, both all-zero between
	// columns; pat lists the pattern, heap holds its pivoted positions not
	// yet eliminated, upos those already eliminated (ascending), lrows the
	// unpivoted nonzero rows (pivot candidates, then the L column); order
	// and buckets belong to columnOrder.
	work, work2           []float64
	inPat                 []bool
	pat, heap, upos       []int32
	lrows, order, buckets []int32
}

type eta struct {
	r      int32
	lo, hi int32   // off-pivot entries are etaRow/etaVal[lo:hi]
	wr     float64 // pivot element w[r]
}

// ErrSingular reports a structurally or numerically singular basis. The
// simplex driver repairs the basis (swapping in logicals) and retries.
var ErrSingular = errors.New("lp: singular basis")

// SingularError carries the detail needed to repair a singular basis.
type SingularError struct {
	// FailedPositions lists basis positions whose columns could not be
	// pivoted.
	FailedPositions []int
	// UnpivotedRows lists original row indices left without a pivot.
	UnpivotedRows []int
}

// Error implements error.
func (e *SingularError) Error() string {
	return fmt.Sprintf("lp: singular basis (%d deficient columns)", len(e.FailedPositions))
}

// Unwrap lets errors.Is(err, ErrSingular) succeed.
func (e *SingularError) Unwrap() error { return ErrSingular }

// basisColumn is the callback used by Factorize to fetch the sparse column
// occupying basis position k. A column lists each row at most once.
type basisColumn func(k int) (rows []int32, vals []float64)

// Factorize (re)computes the LU factors of the m×m matrix whose k-th column
// is col(k), discarding any accumulated etas. pivotTol rejects pivots with
// magnitude below it.
func (f *Factor) Factorize(m int, col basisColumn, pivotTol float64) error {
	f.m = m
	f.etas = f.etas[:0]
	f.etaRow = f.etaRow[:0]
	f.etaVal = f.etaVal[:0]
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
		f.order = make([]int32, m)
		f.work = make([]float64, m)
		f.work2 = make([]float64, m)
		f.inPat = make([]bool, m)
	}
	f.prow = f.prow[:m]
	f.pinv = f.pinv[:m]
	f.cq = f.cq[:m]
	f.order = f.order[:m]
	f.work = f.work[:m]
	f.work2 = f.work2[:m]
	f.inPat = f.inPat[:m]
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	f.columnOrder(col)

	x := f.work // dense accumulator, kept zeroed between columns
	var failed []int
	npiv := 0
	for _, kc := range f.order {
		rows, vals := col(int(kc))
		// Scatter the column, then play back the L columns of the pivoted
		// rows in its pattern, lowest pivot position first. lRow still
		// holds original row indices here; they are remapped to pivot
		// coordinates once every row has one.
		f.pat, f.heap, f.upos = f.pat[:0], f.heap[:0], f.upos[:0]
		for i, r := range rows {
			x[r] = vals[i]
			f.reach(r)
		}
		for len(f.heap) > 0 {
			t := f.popMin()
			f.upos = append(f.upos, t)
			xv := x[f.prow[t]]
			if xv == 0 {
				continue
			}
			for q, e := f.lPtr[t], f.lPtr[t+1]; q < e; q++ {
				r := f.lRow[q]
				x[r] -= f.lVal[q] * xv
				f.reach(r)
			}
		}
		// Pivot: largest magnitude among the unpivoted rows of the pattern,
		// lowest row index on ties (the pattern list is in discovery order,
		// so the tie-break is explicit).
		var best int32 = -1
		bestAbs := 0.0
		f.lrows = f.lrows[:0]
		for _, i := range f.pat {
			if x[i] == 0 || f.pinv[i] >= 0 {
				continue
			}
			f.lrows = append(f.lrows, i)
			if a := math.Abs(x[i]); a > bestAbs || (i < best && exactEq(a, bestAbs)) {
				bestAbs = a
				best = i
			}
		}
		if best < 0 || bestAbs < pivotTol {
			f.clearPattern()
			failed = append(failed, int(kc))
			continue
		}
		k := npiv
		// Emit U column k: the eliminated positions, already ascending.
		for _, t := range f.upos {
			if v := x[f.prow[t]]; v != 0 {
				f.uRow = append(f.uRow, t)
				f.uVal = append(f.uVal, v)
			}
		}
		f.uPtr = append(f.uPtr, int32(len(f.uRow)))
		piv := x[best]
		f.udiag = append(f.udiag, piv)
		// Emit L column k: the other unpivoted rows in ascending original
		// row, scaled by the pivot.
		slices.Sort(f.lrows)
		for _, i := range f.lrows {
			if i != best {
				f.lRow = append(f.lRow, i)
				f.lVal = append(f.lVal, x[i]/piv)
			}
		}
		f.lPtr = append(f.lPtr, int32(len(f.lRow)))
		f.clearPattern()
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
	for q := range f.lRow {
		f.lRow[q] = f.pinv[f.lRow[q]]
	}
	return nil
}

// columnOrder fills f.order with the basis positions in ascending nonzero
// count, ties in ascending position — a counting sort, so the near-triangular
// bases produced by the NIDS formulations factorize with minimal fill at
// O(m) ordering cost.
func (f *Factor) columnOrder(col basisColumn) {
	m := f.m
	if cap(f.buckets) < m+2 {
		f.buckets = make([]int32, m+2)
	}
	start := f.buckets[:m+2]
	for i := range start {
		start[i] = 0
	}
	for k := 0; k < m; k++ {
		rows, _ := col(k)
		start[len(rows)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	for k := 0; k < m; k++ {
		rows, _ := col(k)
		f.order[start[len(rows)]] = int32(k)
		start[len(rows)]++
	}
}

// reach adds row r to the current column's pattern, queueing its pivot
// position for elimination when it already has one.
func (f *Factor) reach(r int32) {
	if f.inPat[r] {
		return
	}
	f.inPat[r] = true
	f.pat = append(f.pat, r)
	if t := f.pinv[r]; t >= 0 {
		f.pushPos(t)
	}
}

// clearPattern zeroes the accumulator over the current pattern.
func (f *Factor) clearPattern() {
	for _, r := range f.pat {
		f.work[r] = 0
		f.inPat[r] = false
	}
}

// pushPos and popMin maintain f.heap as a binary min-heap of pivot positions.
func (f *Factor) pushPos(t int32) {
	h := append(f.heap, t)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	f.heap = h
}

func (f *Factor) popMin() int32 {
	h := f.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	f.heap = h
	return top
}

// NumEtas returns the number of basis updates accumulated since the last
// Factorize.
func (f *Factor) NumEtas() int { return len(f.etas) }

// M returns the dimension of the factorized matrix.
func (f *Factor) M() int { return f.m }

// appendNonzeros appends the indices of w's nonzero entries to dst in
// ascending order: the index list Update and the ratio test work from.
func appendNonzeros(dst []int32, w []float64) []int32 {
	for i, v := range w {
		if v != 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Update appends a product-form eta recording that basis position r was
// replaced by a column whose FTRAN image (B⁻¹ a) is the dense vector w; nz
// is appendNonzeros(nil, w). It returns an error if the pivot element w[r]
// is too small to be stable.
func (f *Factor) Update(r int, w []float64, nz []int32, pivotTol float64) error {
	wr := w[r]
	if math.Abs(wr) < pivotTol {
		return fmt.Errorf("lp: eta pivot %.3e below tolerance at position %d", wr, r)
	}
	lo := int32(len(f.etaRow))
	for _, i := range nz {
		if int(i) != r {
			f.etaRow = append(f.etaRow, i)
			f.etaVal = append(f.etaVal, w[i])
		}
	}
	f.etas = append(f.etas, eta{r: int32(r), lo: lo, hi: int32(len(f.etaRow)), wr: wr})
	return nil
}

// Ftran solves B x = b in place: on entry b holds the right-hand side, on
// exit it holds x. b must have length M().
func (f *Factor) Ftran(b []float64) {
	m := f.m
	z := f.work2
	// z = P b
	for k := 0; k < m; k++ {
		z[k] = b[f.prow[k]]
	}
	// L z = z (unit diagonal, column-oriented forward substitution)
	for k := 0; k < m; k++ {
		zk := z[k]
		if zk == 0 {
			continue
		}
		s, e := f.lPtr[k], f.lPtr[k+1]
		for q := s; q < e; q++ {
			z[f.lRow[q]] -= f.lVal[q] * zk
		}
	}
	// U w = z (column-oriented backward substitution)
	for k := m - 1; k >= 0; k-- {
		wk := z[k] / f.udiag[k]
		z[k] = wk
		if wk == 0 {
			continue
		}
		s, e := f.uPtr[k], f.uPtr[k+1]
		for q := s; q < e; q++ {
			z[f.uRow[q]] -= f.uVal[q] * wk
		}
	}
	// x[cq[k]] = w[k]
	for k := 0; k < m; k++ {
		b[f.cq[k]] = z[k]
	}
	// Apply etas in order: x ← E x with (Ex)_r = x_r/wr, (Ex)_i = x_i − w_i·x_r/wr.
	for idx := range f.etas {
		et := &f.etas[idx]
		xr := b[et.r]
		if xr == 0 {
			continue
		}
		t := xr / et.wr
		b[et.r] = t
		for q := et.lo; q < et.hi; q++ {
			b[f.etaRow[q]] -= f.etaVal[q] * t
		}
	}
}

// Btran solves Bᵀ y = c in place: on entry c holds the right-hand side, on
// exit it holds y. c must have length M().
func (f *Factor) Btran(c []float64) {
	m := f.m
	// Apply eta transposes in reverse: y_r ← (y_r − Σ_{i≠r} w_i y_i)/wr.
	for idx := len(f.etas) - 1; idx >= 0; idx-- {
		et := &f.etas[idx]
		acc := 0.0
		for q := et.lo; q < et.hi; q++ {
			acc += f.etaVal[q] * c[f.etaRow[q]]
		}
		c[et.r] = (c[et.r] - acc) / et.wr
	}
	z := f.work2
	// c' = Qᵀ c: c'[k] = c[cq[k]]
	for k := 0; k < m; k++ {
		z[k] = c[f.cq[k]]
	}
	// Uᵀ z = c' (forward, gather over U columns)
	for k := 0; k < m; k++ {
		acc := z[k]
		s, e := f.uPtr[k], f.uPtr[k+1]
		for q := s; q < e; q++ {
			acc -= f.uVal[q] * z[f.uRow[q]]
		}
		z[k] = acc / f.udiag[k]
	}
	// Lᵀ w = z (backward, gather over L columns; unit diagonal)
	for k := m - 1; k >= 0; k-- {
		acc := z[k]
		s, e := f.lPtr[k], f.lPtr[k+1]
		for q := s; q < e; q++ {
			acc -= f.lVal[q] * z[f.lRow[q]]
		}
		z[k] = acc
	}
	// P y = w → y[prow[k]] = w[k]
	for k := 0; k < m; k++ {
		c[f.prow[k]] = z[k]
	}
}
