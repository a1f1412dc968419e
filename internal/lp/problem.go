// Package lp implements a linear-programming toolkit built from scratch on
// the standard library: a sparse bounded-variable revised simplex solver
// (with LU factorization of the basis, eta-file updates and periodic
// refactorization) and an independent dense tableau solver used as a
// cross-checking oracle in tests.
//
// Problems are stated in general computational form
//
//	minimize    cᵀx
//	subject to  rowLo ≤ A x ≤ rowHi
//	            colLo ≤   x ≤ colHi
//
// where any bound may be ±Inf and rowLo = rowHi expresses an equality.
// Internally each row i gains a logical variable s_i with bounds
// [rowLo_i, rowHi_i] and the system becomes A x − s = 0, so the simplex
// works on equalities with a zero right-hand side throughout.
package lp

import (
	"fmt"
	"math"
	"sort"
)

// Inf is the canonical "no bound" value for variable and row bounds.
var Inf = math.Inf(1)

// Var identifies a structural variable of a Problem.
type Var int

// Row identifies a constraint row of a Problem.
type Row int

// entry is a single nonzero coefficient of the constraint matrix.
type entry struct {
	row  int32
	col  int32
	val  float64
	next int32 // insertion order tiebreak for deterministic dedup
}

// Problem accumulates variables, rows and coefficients. The zero value is
// not usable; construct with NewProblem. Problems may be solved repeatedly
// and are not modified by Solve.
type Problem struct {
	name string

	colLo, colHi, obj []float64
	colName           []string

	rowLo, rowHi []float64
	rowName      []string

	entries []entry
	sorted  bool

	// columns in compressed form, built by compile().
	colPtr []int32
	rowIdx []int32
	val    []float64

	// The same matrix by rows, built by compile() and kept current by
	// UpdateCoef: row i's entries are colIdx/rowVal[rowPtr[i]:rowPtr[i+1]],
	// columns ascending, and rowPos[k] is where column entry k sits in that
	// layout. The simplex forms pivot rows from it.
	rowPtr []int32
	colIdx []int32
	rowVal []float64
	rowPos []int32
}

// NewProblem returns an empty minimization problem with the given name.
func NewProblem(name string) *Problem {
	return &Problem{name: name}
}

// Name returns the problem name supplied at construction.
func (p *Problem) Name() string { return p.name }

// NumVars returns the number of structural variables added so far.
func (p *Problem) NumVars() int { return len(p.colLo) }

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rowLo) }

// NumNonzeros returns the number of coefficient entries set so far
// (duplicates are summed when the problem is compiled).
func (p *Problem) NumNonzeros() int { return len(p.entries) }

// AddVar adds a structural variable with bounds [lo, hi] and objective
// coefficient obj, returning its handle. lo may be -Inf and hi may be +Inf;
// lo > hi is reported at solve time as an infeasibility.
func (p *Problem) AddVar(lo, hi, obj float64, name string) Var {
	p.colLo = append(p.colLo, lo)
	p.colHi = append(p.colHi, hi)
	p.obj = append(p.obj, obj)
	p.colName = append(p.colName, name)
	p.sorted = false
	return Var(len(p.colLo) - 1)
}

// AddRow adds a constraint row with activity bounds [lo, hi] and returns its
// handle. Use lo == hi for an equality, lo == -Inf for a pure ≤ row, and
// hi == +Inf for a pure ≥ row.
func (p *Problem) AddRow(lo, hi float64, name string) Row {
	p.rowLo = append(p.rowLo, lo)
	p.rowHi = append(p.rowHi, hi)
	p.rowName = append(p.rowName, name)
	p.sorted = false
	return Row(len(p.rowLo) - 1)
}

// SetCoef sets (accumulates) the coefficient of variable v in row r.
// Multiple calls for the same (r, v) pair sum their values, which is
// convenient when a formulation derives one coefficient from several terms.
// Zero values are accepted and dropped during compilation.
func (p *Problem) SetCoef(r Row, v Var, coef float64) {
	if int(r) < 0 || int(r) >= len(p.rowLo) {
		panic(fmt.Sprintf("lp: SetCoef: row %d out of range (have %d rows)", r, len(p.rowLo)))
	}
	if int(v) < 0 || int(v) >= len(p.colLo) {
		panic(fmt.Sprintf("lp: SetCoef: var %d out of range (have %d vars)", v, len(p.colLo)))
	}
	if coef == 0 {
		return
	}
	p.entries = append(p.entries, entry{row: int32(r), col: int32(v), val: coef, next: int32(len(p.entries))})
	p.sorted = false
}

// SetObj replaces the objective coefficient of v.
func (p *Problem) SetObj(v Var, obj float64) { p.obj[v] = obj }

// Obj returns the objective coefficient of v.
func (p *Problem) Obj(v Var) float64 { return p.obj[v] }

// SetVarBounds replaces the bounds of v.
func (p *Problem) SetVarBounds(v Var, lo, hi float64) {
	p.colLo[v] = lo
	p.colHi[v] = hi
}

// VarBounds returns the bounds of v.
func (p *Problem) VarBounds(v Var) (lo, hi float64) { return p.colLo[v], p.colHi[v] }

// VarName returns the name given to v at creation.
func (p *Problem) VarName(v Var) string { return p.colName[v] }

// RowName returns the name given to r at creation.
func (p *Problem) RowName(r Row) string { return p.rowName[r] }

// RowBounds returns the activity bounds of r.
func (p *Problem) RowBounds(r Row) (lo, hi float64) { return p.rowLo[r], p.rowHi[r] }

// SetRowBounds replaces the activity bounds of r. Row bounds live outside the
// compiled matrix, so this never forces a recompile — it is the cheap
// mutation the sweep handles in internal/core lean on when only a budget
// (MaxLinkLoad, latency, DC capacity) moves between solves.
func (p *Problem) SetRowBounds(r Row, lo, hi float64) {
	p.rowLo[r] = lo
	p.rowHi[r] = hi
}

// UpdateCoef overwrites the coefficient of variable v in row r in place,
// without invalidating the compiled matrix. The (r, v) entry must already
// exist with a nonzero compiled value and coef must be nonzero — the sparsity
// pattern is fixed by construction, which is what keeps a warm-started basis
// meaningful across the update. Use SetCoef before the first solve to create
// entries; UpdateCoef afterwards to move them.
func (p *Problem) UpdateCoef(r Row, v Var, coef float64) {
	if coef == 0 {
		panic(fmt.Sprintf("lp: UpdateCoef(%s, %s): zero coefficient would change the sparsity pattern", p.rowName[r], p.colName[v]))
	}
	p.compile()
	// Patch the compiled column via binary search over its sorted row ids.
	s, e := int(p.colPtr[v]), int(p.colPtr[v+1])
	k := s + sort.Search(e-s, func(i int) bool { return p.rowIdx[s+i] >= int32(r) })
	if k >= e || p.rowIdx[k] != int32(r) {
		panic(fmt.Sprintf("lp: UpdateCoef(%s, %s): no existing nonzero entry", p.rowName[r], p.colName[v]))
	}
	p.val[k] = coef
	p.rowVal[p.rowPos[k]] = coef
	// Keep the triplet list consistent so a later recompile (e.g. after new
	// rows are added) reproduces the same matrix: the first duplicate takes
	// the new value, the rest are zeroed. compile() sorted entries in place,
	// so the duplicates for (v, r) are contiguous and binary-searchable.
	es := p.entries
	t := sort.Search(len(es), func(i int) bool {
		if es[i].col != int32(v) {
			return es[i].col > int32(v)
		}
		return es[i].row >= int32(r)
	})
	if t >= len(es) || es[t].col != int32(v) || es[t].row != int32(r) {
		panic(fmt.Sprintf("lp: UpdateCoef(%s, %s): compiled entry has no triplet source", p.rowName[r], p.colName[v]))
	}
	es[t].val = coef
	for t++; t < len(es) && es[t].col == int32(v) && es[t].row == int32(r); t++ {
		es[t].val = 0
	}
}

// compile sorts the triplet entries into compressed-column form, summing
// duplicates and dropping exact zeros. It is idempotent.
func (p *Problem) compile() {
	if p.sorted {
		return
	}
	es := p.entries
	sort.Slice(es, func(i, j int) bool {
		if es[i].col != es[j].col {
			return es[i].col < es[j].col
		}
		if es[i].row != es[j].row {
			return es[i].row < es[j].row
		}
		return es[i].next < es[j].next
	})
	n := len(p.colLo)
	p.colPtr = make([]int32, n+1)
	p.rowIdx = p.rowIdx[:0]
	p.val = p.val[:0]
	i := 0
	for c := 0; c < n; c++ {
		p.colPtr[c] = int32(len(p.rowIdx))
		for i < len(es) && int(es[i].col) == c {
			r := es[i].row
			v := 0.0
			for i < len(es) && int(es[i].col) == c && es[i].row == r {
				v += es[i].val
				i++
			}
			if v != 0 {
				p.rowIdx = append(p.rowIdx, r)
				p.val = append(p.val, v)
			}
		}
	}
	p.colPtr[n] = int32(len(p.rowIdx))
	p.compileRows()
	p.sorted = true
}

// compileRows transposes the compressed columns into compressed rows.
// Sweeping the columns in ascending order leaves every row's entries in
// ascending column order.
func (p *Problem) compileRows() {
	m := len(p.rowLo)
	p.rowPtr = make([]int32, m+1)
	for _, r := range p.rowIdx {
		p.rowPtr[r+1]++
	}
	for i := 0; i < m; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	p.colIdx = make([]int32, len(p.rowIdx))
	p.rowVal = make([]float64, len(p.rowIdx))
	p.rowPos = make([]int32, len(p.rowIdx))
	next := append([]int32(nil), p.rowPtr[:m]...)
	for c := 0; c+1 < len(p.colPtr); c++ {
		for k := p.colPtr[c]; k < p.colPtr[c+1]; k++ {
			q := next[p.rowIdx[k]]
			next[p.rowIdx[k]]++
			p.colIdx[q] = int32(c)
			p.rowVal[q] = p.val[k]
			p.rowPos[k] = q
		}
	}
}

// column returns the compiled sparse column of structural variable j.
func (p *Problem) column(j int) (rows []int32, vals []float64) {
	s, e := p.colPtr[j], p.colPtr[j+1]
	return p.rowIdx[s:e], p.val[s:e]
}

// Activity computes the row activities A·x for a candidate point x
// (len(x) == NumVars). It is primarily useful for verifying solutions.
func (p *Problem) Activity(x []float64) []float64 {
	p.compile()
	act := make([]float64, p.NumRows())
	for j := 0; j < p.NumVars(); j++ {
		if x[j] == 0 {
			continue
		}
		rows, vals := p.column(j)
		for k, r := range rows {
			act[r] += vals[k] * x[j]
		}
	}
	return act
}

// ObjectiveValue computes cᵀx for a candidate point x.
func (p *Problem) ObjectiveValue(x []float64) float64 {
	var v float64
	for j, c := range p.obj {
		if c != 0 {
			v += c * x[j]
		}
	}
	return v
}

// MaxViolation reports the largest bound or row violation of x; a feasible
// point has MaxViolation ≤ tolerance.
func (p *Problem) MaxViolation(x []float64) float64 {
	var worst float64
	for j := range p.colLo {
		if d := p.colLo[j] - x[j]; d > worst {
			worst = d
		}
		if d := x[j] - p.colHi[j]; d > worst {
			worst = d
		}
	}
	for i, a := range p.Activity(x) {
		if d := p.rowLo[i] - a; d > worst {
			worst = d
		}
		if d := a - p.rowHi[i]; d > worst {
			worst = d
		}
	}
	return worst
}

// Stats summarizes problem dimensions for logging.
func (p *Problem) Stats() string {
	return fmt.Sprintf("%s: %d rows, %d cols, %d nonzeros", p.name, p.NumRows(), p.NumVars(), p.NumNonzeros())
}
