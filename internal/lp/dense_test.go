package lp

import "math"

// SolveDense minimizes the problem with a classic dense two-phase tableau
// simplex using Bland's rule. It is an intentionally independent
// implementation used as a cross-checking oracle in tests and is only
// suitable for small problems (tens of rows and columns).
func SolveDense(p *Problem) *Solution {
	p.compile()
	const tol = 1e-9

	// --- Transform variables to x' ≥ 0 -------------------------------------
	// x_j = shift_j + sign_j·x'_{map1_j} (− x'_{map2_j} when free).
	type vmap struct {
		shift      float64
		sign       float64
		k1, k2     int     // k2 >= 0 only for free variables
		upperBound float64 // extra row x'_{k1} ≤ upperBound when finite
	}
	n := p.NumVars()
	maps := make([]vmap, n)
	ncols := 0
	for j := 0; j < n; j++ {
		lo, hi := p.colLo[j], p.colHi[j]
		switch {
		case !math.IsInf(lo, -1):
			maps[j] = vmap{shift: lo, sign: 1, k1: ncols, k2: -1, upperBound: hi - lo}
			ncols++
		case !math.IsInf(hi, 1):
			maps[j] = vmap{shift: hi, sign: -1, k1: ncols, k2: -1, upperBound: math.Inf(1)}
			ncols++
		default:
			maps[j] = vmap{shift: 0, sign: 1, k1: ncols, k2: ncols + 1, upperBound: math.Inf(1)}
			ncols += 2
		}
	}

	// --- Assemble rows: a·x' (cmp) rhs, cmp ∈ {-1: ≤, 0: =} -----------------
	type drow struct {
		a   []float64
		cmp int
		rhs float64
	}
	var rows []drow
	addRow := func(a []float64, cmp int, rhs float64) {
		rows = append(rows, drow{a: a, cmp: cmp, rhs: rhs})
	}
	// Structural upper-bound rows.
	for j := 0; j < n; j++ {
		ub := maps[j].upperBound
		if !math.IsInf(ub, 1) && maps[j].k2 < 0 && ub > 0 {
			a := make([]float64, ncols)
			a[maps[j].k1] = 1
			addRow(a, -1, ub)
		}
		if !math.IsInf(ub, 1) && ub == 0 {
			a := make([]float64, ncols)
			a[maps[j].k1] = 1
			addRow(a, 0, 0)
		}
	}
	// Constraint rows. Activity a·x = a·shift + Σ a_j·sign_j x'_j.
	for i := 0; i < p.NumRows(); i++ {
		a := make([]float64, ncols)
		var base float64
		for j := 0; j < n; j++ {
			rowsj, valsj := p.column(j)
			for k, r := range rowsj {
				if int(r) != i {
					continue
				}
				c := valsj[k]
				base += c * maps[j].shift
				a[maps[j].k1] += c * maps[j].sign
				if maps[j].k2 >= 0 {
					a[maps[j].k2] -= c
				}
			}
		}
		lo, hi := p.rowLo[i], p.rowHi[i]
		if exactEq(lo, hi) {
			addRow(a, 0, lo-base)
			continue
		}
		if !math.IsInf(hi, 1) {
			ac := make([]float64, ncols)
			copy(ac, a)
			addRow(ac, -1, hi-base)
		}
		if !math.IsInf(lo, -1) {
			ac := make([]float64, ncols)
			for k := range a {
				ac[k] = -a[k]
			}
			addRow(ac, -1, -(lo - base))
		}
	}

	// Objective over x': c·x = c·shift + Σ c_j sign_j x'.
	cost := make([]float64, ncols)
	for j := 0; j < n; j++ {
		c := p.obj[j]
		cost[maps[j].k1] += c * maps[j].sign
		if maps[j].k2 >= 0 {
			cost[maps[j].k2] -= c
		}
	}

	// --- Standard form with slacks and artificials --------------------------
	m := len(rows)
	// Count slacks.
	nslack := 0
	for _, r := range rows {
		if r.cmp == -1 {
			nslack++
		}
	}
	width := ncols + nslack + m // structurals' + slacks + artificials
	T := make([][]float64, m)
	b := make([]float64, m)
	basisv := make([]int, m)
	si := 0
	for i, r := range rows {
		T[i] = make([]float64, width)
		copy(T[i], r.a)
		rhs := r.rhs
		neg := rhs < 0
		if neg {
			for k := range r.a {
				T[i][k] = -T[i][k]
			}
			rhs = -rhs
		}
		if r.cmp == -1 {
			v := 1.0
			if neg {
				v = -1
			}
			T[i][ncols+si] = v
			si++
		}
		T[i][ncols+nslack+i] = 1 // artificial
		b[i] = rhs
		basisv[i] = ncols + nslack + i
	}

	pivot := func(r, c int) {
		pr := T[r]
		pv := pr[c]
		for k := range pr {
			pr[k] /= pv
		}
		b[r] /= pv
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			f := T[i][c]
			if f == 0 {
				continue
			}
			for k := range T[i] {
				T[i][k] -= f * pr[k]
			}
			b[i] -= f * b[r]
		}
		basisv[r] = c
	}

	runPhase := func(c []float64, limit int) Status {
		// Reduced costs d_j = c_j − c_Bᵀ·T_j are computed once at phase start
		// and then maintained through pivots (d ← d − d_enter·row_r, using the
		// normalized post-pivot row) instead of being rebuilt from the basis
		// for every candidate column — that rebuild made each pivot quadratic
		// and bounded how large the knownopt corpus problems could get.
		d := make([]float64, limit)
		for j := 0; j < limit; j++ {
			var z float64
			for i := 0; i < m; i++ {
				z += c[basisv[i]] * T[i][j]
			}
			d[j] = c[j] - z
		}
		for iter := 0; iter < 20000; iter++ {
			enter := -1
			for j := 0; j < limit; j++ {
				if d[j] < -tol {
					enter = j // Bland: first improving index
					break
				}
			}
			if enter < 0 {
				return Optimal
			}
			leave := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if T[i][enter] > tol {
					r := b[i] / T[i][enter]
					if r < best-tol || (r < best+tol && (leave < 0 || basisv[i] < basisv[leave])) {
						best = r
						leave = i
					}
				}
			}
			if leave < 0 {
				return Unbounded
			}
			dEnter := d[enter]
			pivot(leave, enter)
			for j := 0; j < limit; j++ {
				d[j] -= dEnter * T[leave][j]
			}
			d[enter] = 0 // exact: avoids tol-scale residue re-entering
		}
		return IterationLimit
	}

	// Phase 1: minimize sum of artificials.
	c1 := make([]float64, width)
	for k := ncols + nslack; k < width; k++ {
		c1[k] = 1
	}
	st := runPhase(c1, width)
	if st != Optimal {
		return &Solution{Status: st}
	}
	var art float64
	for i := 0; i < m; i++ {
		if basisv[i] >= ncols+nslack {
			art += b[i]
		}
	}
	if art > 1e-7 {
		return &Solution{Status: Infeasible}
	}
	// Drive remaining artificials out of the basis when possible.
	for i := 0; i < m; i++ {
		if basisv[i] < ncols+nslack {
			continue
		}
		done := false
		for j := 0; j < ncols+nslack && !done; j++ {
			if math.Abs(T[i][j]) > 1e-7 {
				pivot(i, j)
				done = true
			}
		}
	}

	// Phase 2 over structurals'+slacks only.
	c2 := make([]float64, width)
	copy(c2, cost)
	st = runPhase(c2, ncols+nslack)
	if st != Optimal {
		return &Solution{Status: st}
	}

	// Recover x.
	xp := make([]float64, width)
	for i := 0; i < m; i++ {
		xp[basisv[i]] = b[i]
	}
	sol := &Solution{Status: Optimal, X: make([]float64, n)}
	for j := 0; j < n; j++ {
		v := maps[j].shift + maps[j].sign*xp[maps[j].k1]
		if maps[j].k2 >= 0 {
			v -= xp[maps[j].k2]
		}
		sol.X[j] = v
	}
	sol.Objective = p.ObjectiveValue(sol.X)
	sol.RowActivity = p.Activity(sol.X)
	return sol
}
