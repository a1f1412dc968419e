package lp

import (
	"errors"
	"math"
	"time"
)

// Variable states tracked by the simplex.
const (
	stBasic int8 = iota
	stLower
	stUpper
	stFree // nonbasic free variable pinned at zero
)

// Solve minimizes the problem with a bounded-variable two-phase revised
// simplex. The constraint system is handled as A x − s = 0 with one logical
// variable s per row bounded by the row's activity range, so phase 1 is a
// composite infeasibility minimization over the basic variables and phase 2
// is the ordinary bounded-ratio simplex. The basis is maintained as a sparse
// LU factorization with product-form eta updates and periodic
// refactorization.
func Solve(p *Problem, opts Options) *Solution {
	start := time.Now()
	p.compile()
	s := newSimplex(p, opts)
	status := s.run()
	sol := s.extract(status)
	sol.SolveTime = time.Since(start)
	return sol
}

type simplex struct {
	p   *Problem
	opt Options

	m, n, nv int // rows, structurals, total variables (n + m)

	lo, hi, cost []float64
	state        []int8
	xv           []float64 // current value of every variable
	basis        []int     // variable occupying each basis position
	pos          []int32   // variable -> basis position, or -1

	f Factor

	// dense scratch, length m
	y, w, rhs []float64
	d         []float64 // phase-1 cost by basis position
	wnz       []int32   // ascending basis positions k with w[k] != 0
	costIdx   []int32   // ascending structurals j with cost[j] != 0

	lr [1]int32 // logical column scratch
	lv [1]float64

	// devex pricing state: reference-framework weights per variable, the
	// partial-pricing block cursor, the Btran scratch for the pivot row, and
	// the pivot row's accumulator by structural column (all zero between
	// pivots).
	dvx         []float64
	priceCursor int
	rho         []float64
	alpha       []float64

	iters    int
	refacts  int
	bland    bool
	stall    int
	lastObj  float64
	maxIters int

	stats      SolveStats
	curPhase1  bool
	phaseStart time.Time
	spanEnd    func()    // closes the open phase trace span, if any
	resid      []float64 // refactorization residual scratch, length m
}

func newSimplex(p *Problem, opts Options) *simplex {
	m, n := p.NumRows(), p.NumVars()
	s := &simplex{
		p: p, m: m, n: n, nv: n + m,
		lo:    make([]float64, n+m),
		hi:    make([]float64, n+m),
		cost:  make([]float64, n+m),
		state: make([]int8, n+m),
		xv:    make([]float64, n+m),
		basis: make([]int, m),
		pos:   make([]int32, n+m),
		y:     make([]float64, m),
		w:     make([]float64, m),
		rhs:   make([]float64, m),
		d:     make([]float64, m),
	}
	s.opt = opts.withDefaults(m, n)
	s.maxIters = s.opt.MaxIterations
	s.stats.Pricer = s.opt.Pricing.String()
	copy(s.lo, p.colLo)
	copy(s.hi, p.colHi)
	copy(s.cost, p.obj)
	for j, c := range p.obj {
		if c != 0 {
			s.costIdx = append(s.costIdx, int32(j))
		}
	}
	for i := 0; i < m; i++ {
		s.lo[n+i] = p.rowLo[i]
		s.hi[n+i] = p.rowHi[i]
	}
	return s
}

// column returns the sparse column of variable j in the extended matrix
// [A | −I]. The returned slices are valid until the next call.
func (s *simplex) column(j int) ([]int32, []float64) {
	if j < s.n {
		return s.p.column(j)
	}
	s.lr[0] = int32(j - s.n)
	s.lv[0] = -1
	return s.lr[:], s.lv[:]
}

// nearestBoundState picks the initial nonbasic state for a variable.
func (s *simplex) nearestBoundState(j int) int8 {
	lo, hi := s.lo[j], s.hi[j]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return stFree
	case math.IsInf(lo, -1):
		return stUpper
	case math.IsInf(hi, 1):
		return stLower
	case math.Abs(hi) < math.Abs(lo):
		return stUpper
	default:
		return stLower
	}
}

func (s *simplex) nonbasicValue(j int) float64 {
	switch s.state[j] {
	case stLower:
		return s.lo[j]
	case stUpper:
		return s.hi[j]
	default:
		return 0
	}
}

// initBasis assembles the starting basis — a warm-start snapshot when one
// is supplied and installable, else the crash hint plus logicals — and
// factorizes it, repairing singularities by swapping in logicals.
func (s *simplex) initBasis() error {
	if s.opt.WarmStart != nil && s.installBasis(s.opt.WarmStart) {
		s.stats.WarmStartHits = 1
		return s.refactorize()
	}
	for j := range s.pos {
		s.pos[j] = -1
	}
	claimed := make([]bool, s.m)
	nb := 0
	for _, v := range s.opt.CrashBasis {
		j := int(v)
		if j < 0 || j >= s.n || s.pos[j] >= 0 || nb >= s.m {
			continue
		}
		rows, _ := s.p.column(j)
		cl := -1
		for _, r := range rows {
			if !claimed[r] {
				cl = int(r)
				break
			}
		}
		if cl < 0 {
			continue
		}
		claimed[cl] = true
		s.basis[nb] = j
		s.pos[j] = int32(nb)
		nb++
	}
	for i := 0; i < s.m && nb < s.m; i++ {
		if claimed[i] {
			continue
		}
		j := s.n + i
		s.basis[nb] = j
		s.pos[j] = int32(nb)
		claimed[i] = true
		nb++
	}
	// In the unlikely event rows ran out (more crash vars than rows), nb == m.
	for j := 0; j < s.nv; j++ {
		if s.pos[j] >= 0 {
			s.state[j] = stBasic
		} else {
			s.state[j] = s.nearestBoundState(j)
			s.xv[j] = s.nonbasicValue(j)
		}
	}
	for _, v := range s.opt.AtUpper {
		j := int(v)
		if j >= 0 && j < s.nv && s.state[j] != stBasic && !math.IsInf(s.hi[j], 1) {
			s.state[j] = stUpper
			s.xv[j] = s.hi[j]
		}
	}
	return s.refactorize()
}

// refactorize rebuilds the LU factors of the current basis, repairing
// singular bases by replacing deficient columns with row logicals, and
// recomputes the basic variable values.
func (s *simplex) refactorize() error {
	if etas := s.f.NumEtas(); etas > s.stats.MaxEtaAtRefactor {
		s.stats.MaxEtaAtRefactor = etas
	}
	for attempt := 0; ; attempt++ {
		err := s.f.Factorize(s.m, func(k int) ([]int32, []float64) {
			return s.column(s.basis[k])
		}, s.opt.PivotTol)
		if err == nil {
			break
		}
		var se *SingularError
		if !errors.As(err, &se) || attempt > 4 {
			return err
		}
		// Repair: kick the deficient columns out of the basis and bring in
		// the logicals of the unpivoted rows.
		if len(se.FailedPositions) != len(se.UnpivotedRows) {
			return err
		}
		for i, pos := range se.FailedPositions {
			out := s.basis[pos]
			s.pos[out] = -1
			s.state[out] = s.nearestBoundState(out)
			s.xv[out] = s.nonbasicValue(out)
			lj := s.n + se.UnpivotedRows[i]
			if s.pos[lj] >= 0 {
				// The logical is already basic elsewhere; extremely unlikely
				// given it corresponds to an unpivoted row, but bail safely.
				return err
			}
			s.basis[pos] = lj
			s.pos[lj] = int32(pos)
			s.state[lj] = stBasic
		}
	}
	s.refacts++
	s.computeXB()
	if r := s.residualInf(); r > s.stats.MaxResidual {
		s.stats.MaxResidual = r
	}
	return nil
}

// residualInf returns ‖A·x − s‖∞ over the rows for the current point: how
// far the freshly recomputed basic values are from satisfying the equality
// system. Called only after refactorizations, so the O(nnz) sweep is off the
// per-pivot hot path.
func (s *simplex) residualInf() float64 {
	if s.resid == nil {
		s.resid = make([]float64, s.m)
	}
	for i := range s.resid {
		s.resid[i] = 0
	}
	for j := 0; j < s.n; j++ {
		x := s.xv[j]
		if x == 0 {
			continue
		}
		rows, vals := s.p.column(j)
		for k, r := range rows {
			s.resid[r] += vals[k] * x
		}
	}
	var worst float64
	for i := 0; i < s.m; i++ {
		if d := math.Abs(s.resid[i] - s.xv[s.n+i]); d > worst {
			worst = d
		}
	}
	return worst
}

// endPhase charges the elapsed wall time to the phase the solver has been
// in since phaseStart and restarts the clock.
func (s *simplex) endPhase() {
	d := time.Since(s.phaseStart)
	if s.curPhase1 {
		s.stats.Phase1Time += d
	} else {
		s.stats.Phase2Time += d
	}
	s.phaseStart = time.Now()
}

// computeXB recomputes all basic variable values from the nonbasic ones.
func (s *simplex) computeXB() {
	for i := range s.rhs {
		s.rhs[i] = 0
	}
	for j := 0; j < s.nv; j++ {
		if s.state[j] == stBasic {
			continue
		}
		v := s.xv[j]
		if v == 0 {
			continue
		}
		rows, vals := s.column(j)
		for k, r := range rows {
			s.rhs[r] -= vals[k] * v
		}
	}
	s.f.Ftran(s.rhs)
	for k, j := range s.basis {
		s.xv[j] = s.rhs[k]
	}
}

// totalInfeasibility sums bound violations over the basic variables.
func (s *simplex) totalInfeasibility() float64 {
	var t float64
	for _, j := range s.basis {
		x := s.xv[j]
		if d := s.lo[j] - x; d > 0 {
			t += d
		}
		if d := x - s.hi[j]; d > 0 {
			t += d
		}
	}
	return t
}

// phaseCosts fills s.d with the cost of each basic variable for the current
// phase: composite infeasibility costs in phase 1, true costs in phase 2.
func (s *simplex) phaseCosts(phase1 bool) {
	ft := s.opt.FeasTol
	for k, j := range s.basis {
		if phase1 {
			switch x := s.xv[j]; {
			case x < s.lo[j]-ft:
				s.d[k] = -1
			case x > s.hi[j]+ft:
				s.d[k] = 1
			default:
				s.d[k] = 0
			}
		} else {
			s.d[k] = s.cost[j]
		}
	}
}

// price returns the entering variable and its movement direction, or -1 if
// none is eligible. The devex path is the default; Dantzig keeps a full
// most-negative scan, and a Bland stall forces first-index selection on the
// full-scan path regardless of the configured rule (anti-cycling needs the
// fixed index order).
func (s *simplex) price(phase1 bool, tol float64) (enter int, sigma float64) {
	if s.bland || s.opt.Pricing == PricingDantzig {
		return s.priceFull(phase1, tol)
	}
	return s.priceDevex(phase1, tol)
}

// priceFull computes reduced costs against y over every nonbasic column:
// Dantzig's most-negative rule, or first-eligible under Bland.
func (s *simplex) priceFull(phase1 bool, tol float64) (enter int, sigma float64) {
	best := -1
	bestScore := tol
	var bestSigma float64
	consider := func(j int, rc float64) bool {
		var sig, score float64
		switch s.state[j] {
		case stLower:
			if rc < -tol {
				sig, score = 1, -rc
			}
		case stUpper:
			if rc > tol {
				sig, score = -1, rc
			}
		case stFree:
			if rc < -tol {
				sig, score = 1, -rc
			} else if rc > tol {
				sig, score = -1, rc
			}
		default:
			return false
		}
		if score == 0 {
			return false
		}
		if s.bland {
			// Bland's rule: first eligible index wins.
			best, bestSigma = j, sig
			return true
		}
		if score > bestScore {
			best, bestScore, bestSigma = j, score, sig
		}
		return false
	}
	// Structural variables: rc = c_j − yᵀa_j.
	for j := 0; j < s.n; j++ {
		if s.state[j] == stBasic || exactEq(s.lo[j], s.hi[j]) {
			continue
		}
		var dot float64
		rows, vals := s.p.column(j)
		for k, r := range rows {
			dot += vals[k] * s.y[r]
		}
		cj := 0.0
		if !phase1 {
			cj = s.cost[j]
		}
		if consider(j, cj-dot) {
			return best, bestSigma
		}
	}
	// Logicals: column is −e_i, so rc = c − (−y_i) = c + y_i (c = 0).
	for i := 0; i < s.m; i++ {
		j := s.n + i
		if s.state[j] == stBasic || exactEq(s.lo[j], s.hi[j]) {
			continue
		}
		if consider(j, s.y[i]) {
			return best, bestSigma
		}
	}
	return best, bestSigma
}

// devexResetThreshold bounds the devex weights: once any weight outgrows
// it, the reference framework has drifted too far from the weights'
// steepest-edge approximation and the pricer re-anchors at the current
// nonbasic set (all weights 1).
const devexResetThreshold = 1e8

// resetDevex re-initializes the devex reference framework. Resets forced by
// weight overflow are counted in the stats; the phase-boundary and initial
// resets are bookkeeping, not drift, and are not.
func (s *simplex) resetDevex(counted bool) {
	if s.dvx == nil {
		s.dvx = make([]float64, s.nv)
	}
	for j := range s.dvx {
		s.dvx[j] = 1
	}
	if counted {
		s.stats.DevexResets++
	}
}

// devexBlock is the partial-pricing block length: a fraction of the column
// count, floored so small problems degenerate to a full scan.
func (s *simplex) devexBlock() int {
	b := s.nv / 8
	if b < 64 {
		b = 64
	}
	return b
}

// reducedCost computes the reduced cost of nonbasic variable j against the
// Btran'd phase costs in s.y. Nonbasic variables have zero cost in phase 1
// (the composite objective only charges basic infeasibilities), and the
// logical column is −e_i, so its reduced cost is +y_i.
func (s *simplex) reducedCost(j int, phase1 bool) float64 {
	if j >= s.n {
		return s.y[j-s.n]
	}
	var dot float64
	rows, vals := s.p.column(j)
	for k, r := range rows {
		dot += vals[k] * s.y[r]
	}
	if phase1 {
		return -dot
	}
	return s.cost[j] - dot
}

// eligSigma maps a nonbasic state and reduced cost to the improving
// movement direction, or 0 when the variable is not eligible to enter.
func eligSigma(state int8, rc, tol float64) float64 {
	switch state {
	case stLower:
		if rc < -tol {
			return 1
		}
	case stUpper:
		if rc > tol {
			return -1
		}
	case stFree:
		if rc < -tol {
			return 1
		}
		if rc > tol {
			return -1
		}
	}
	return 0
}

// priceDevex scans candidate columns in fixed-size blocks starting at the
// rotating cursor and picks the best devex score rc²/w within the first
// block that contains any eligible candidate. Only when every block comes
// up empty — a full wrap over all nv columns — does it declare optimality,
// so partial pricing never terminates early. The cursor advances across
// calls, spreading pricing work over the column range deterministically.
func (s *simplex) priceDevex(phase1 bool, tol float64) (enter int, sigma float64) {
	if s.nv == 0 {
		return -1, 0
	}
	if s.dvx == nil {
		s.resetDevex(false)
	}
	best := -1
	var bestSigma, bestScore float64
	blk := s.devexBlock()
	j := s.priceCursor % s.nv
	for scanned := 0; scanned < s.nv; {
		limit := scanned + blk
		if limit > s.nv {
			limit = s.nv
		}
		for ; scanned < limit; scanned++ {
			cand := j
			j++
			if j == s.nv {
				j = 0
			}
			if s.state[cand] == stBasic || exactEq(s.lo[cand], s.hi[cand]) {
				continue
			}
			rc := s.reducedCost(cand, phase1)
			sig := eligSigma(s.state[cand], rc, tol)
			if sig == 0 {
				continue
			}
			if score := rc * rc / s.dvx[cand]; score > bestScore {
				best, bestSigma, bestScore = cand, sig, score
			}
		}
		if best >= 0 {
			s.priceCursor = j
			return best, bestSigma
		}
	}
	return -1, 0
}

// computeRho fills s.rho with the pivot row's Btran seed (Bᵀ)⁻¹·e_r. It
// must run against the pre-pivot factorization, i.e. before f.Update.
func (s *simplex) computeRho(blockPos int) {
	if s.rho == nil {
		s.rho = make([]float64, s.m)
	}
	for i := range s.rho {
		s.rho[i] = 0
	}
	s.rho[blockPos] = 1
	s.f.Btran(s.rho)
}

// devexUpdate applies the Forrest–Goldfarb reference-framework update after
// a pivot: every nonbasic weight becomes max(w_j, (α_rj/α_rq)²·w_q) and the
// leaving variable re-enters the nonbasic set with max(w_q/α_rq², 1).
// Called with the pre-pivot bookkeeping (enter still nonbasic, leave still
// basic) and the pre-pivot rho from computeRho.
//
// The pivot row α_r = ρᵀ[A | −I] is formed row-wise: only the rows with
// ρ_i ≠ 0 are scattered, in ascending row order, into a per-column
// accumulator. Columns store their rows ascending, so each α_rj adds the
// same products in the same order as a column dot product would, and the
// terms left out are exact zeros. One ascending sweep then reads the row and
// clears the accumulator; the weight updates are independent per column, so
// their order is free.
func (s *simplex) devexUpdate(enter, leave, blockPos int) {
	arq := s.w[blockPos]
	if arq == 0 {
		return
	}
	if s.alpha == nil {
		s.alpha = make([]float64, s.n)
	}
	wq := s.dvx[enter]
	ratio := wq / (arq * arq)
	var maxW float64
	raise := func(j int, a float64) {
		if cand := a * a * ratio; cand > s.dvx[j] {
			s.dvx[j] = cand
		}
		if s.dvx[j] > maxW {
			maxW = s.dvx[j]
		}
	}
	p := s.p
	for i, ri := range s.rho {
		if ri == 0 {
			continue
		}
		for q, e := p.rowPtr[i], p.rowPtr[i+1]; q < e; q++ {
			s.alpha[p.colIdx[q]] += p.rowVal[q] * ri
		}
		if j := s.n + i; s.state[j] != stBasic && j != enter {
			raise(j, ri)
		}
	}
	for j, a := range s.alpha {
		if a == 0 {
			continue
		}
		s.alpha[j] = 0
		if s.state[j] != stBasic && j != enter {
			raise(j, a)
		}
	}
	lw := ratio
	if lw < 1 {
		lw = 1
	}
	s.dvx[leave] = lw
	if lw > maxW {
		maxW = lw
	}
	if maxW > devexResetThreshold {
		s.resetDevex(true)
	}
}

// ratioResult describes the outcome of the ratio test.
type ratioResult struct {
	t        float64 // step length
	blockPos int     // blocking basis position, or -1 for a bound flip
	toUpper  bool    // leaving variable exits at its upper bound
	flip     bool    // entering variable flips to its opposite bound
}

// ratioTest finds the maximum step for entering variable j moving with sign
// sigma along direction w (x_B changes by −sigma·t·w), visiting only the
// nonzeros of w listed in s.wnz (a zero never blocks). In phase 1,
// infeasible basics block when they reach the bound they violate; feasible
// basics block as usual. Uses a two-pass Harris-style test for stability.
func (s *simplex) ratioTest(j int, sigma float64, phase1 bool) ratioResult {
	ft := s.opt.FeasTol
	pt := s.opt.PivotTol
	res := ratioResult{t: math.Inf(1), blockPos: -1}
	// Entering variable's own range allows a bound flip.
	if rng := s.hi[j] - s.lo[j]; !math.IsInf(rng, 1) {
		res.t = rng
		res.flip = true
	}

	// Pass 1: relaxed minimum ratio with feasibility slack.
	tmax := res.t
	for _, k := range s.wnz {
		rho := -sigma * s.w[k] // rate of change of basic k
		if rho > -pt && rho < pt {
			continue
		}
		b := s.basis[k]
		x := s.xv[b]
		lo, hi := s.lo[b], s.hi[b]
		var lim float64 = math.Inf(1)
		switch {
		case phase1 && x < lo-ft:
			if rho > 0 {
				lim = (lo - x + ft) / rho
			}
		case phase1 && x > hi+ft:
			if rho < 0 {
				lim = (x - hi + ft) / -rho
			}
		default:
			if rho > 0 && !math.IsInf(hi, 1) {
				lim = (hi - x + ft) / rho
			} else if rho < 0 && !math.IsInf(lo, -1) {
				lim = (x - lo + ft) / -rho
			}
		}
		if lim < tmax {
			tmax = lim
		}
	}
	if math.IsInf(tmax, 1) {
		return res // unbounded (or pure flip if res.flip)
	}

	// Pass 2: among blockers whose exact ratio is ≤ tmax, pick the one with
	// the largest pivot magnitude.
	bestPivot := 0.0
	for _, k32 := range s.wnz {
		k := int(k32)
		rho := -sigma * s.w[k]
		if rho > -pt && rho < pt {
			continue
		}
		b := s.basis[k]
		x := s.xv[b]
		lo, hi := s.lo[b], s.hi[b]
		var exact float64
		var up bool
		switch {
		case phase1 && x < lo-ft:
			if rho <= 0 {
				continue
			}
			exact, up = (lo-x)/rho, false
		case phase1 && x > hi+ft:
			if rho >= 0 {
				continue
			}
			exact, up = (x-hi)/-rho, true
		default:
			if rho > 0 && !math.IsInf(hi, 1) {
				exact, up = (hi-x)/rho, true
			} else if rho < 0 && !math.IsInf(lo, -1) {
				exact, up = (x-lo)/-rho, false
			} else {
				continue
			}
		}
		if exact <= tmax {
			if a := math.Abs(rho); a > bestPivot {
				bestPivot = a
				res.blockPos = k
				res.toUpper = up
				res.t = exact
			}
		}
	}
	if res.blockPos >= 0 {
		res.flip = false
		if res.t < 0 {
			res.t = 0 // degenerate step clipped to zero
		}
		return res
	}
	// No basic blocks within tmax: the entering variable flips bounds.
	return res
}

// startPhaseSpan opens a trace span for the phase the solver just entered
// (no-op without an Options.StartSpan hook).
func (s *simplex) startPhaseSpan() {
	if s.opt.StartSpan == nil {
		return
	}
	name := "lp.phase2"
	if s.curPhase1 {
		name = "lp.phase1"
	}
	s.spanEnd = s.opt.StartSpan(name)
}

// endPhaseSpan closes the open phase trace span, if any.
func (s *simplex) endPhaseSpan() {
	if s.spanEnd != nil {
		s.spanEnd()
		s.spanEnd = nil
	}
}

// run executes the simplex loop and returns the final status, charging
// wall time to the phase the solver was in.
func (s *simplex) run() Status {
	s.curPhase1 = true
	s.phaseStart = time.Now()
	s.startPhaseSpan()
	status := s.runLoop()
	s.endPhase()
	s.endPhaseSpan()
	return status
}

func (s *simplex) runLoop() Status {
	for j := range s.lo {
		if s.lo[j] > s.hi[j]+s.opt.FeasTol {
			return Infeasible
		}
	}
	if err := s.initBasis(); err != nil {
		return NumericalFailure
	}
	s.lastObj = math.Inf(1)
	lastPhase1 := true
	first := true
	for {
		if s.iters >= s.maxIters {
			return IterationLimit
		}
		infeas := s.totalInfeasibility()
		phase1 := infeas > s.opt.FeasTol
		if first {
			if !phase1 {
				// The starting basis (crash or warm) is already primal
				// feasible: no phase-1 pivot will run.
				s.stats.Phase1Skips = 1
			}
			first = false
		}

		// Stall detection drives the Bland fallback. The objective changes
		// meaning across the phase boundary, so the tracker resets there.
		// Devex weights approximate steepest-edge norms for the *current*
		// objective, so the pricer re-anchors at the boundary too.
		if phase1 != lastPhase1 {
			s.lastObj = math.Inf(1)
			s.stall = 0
			s.bland = false
			lastPhase1 = phase1
			s.endPhase()
			s.curPhase1 = phase1
			s.endPhaseSpan()
			s.startPhaseSpan()
			s.resetDevex(false)
			s.priceCursor = 0
		}
		obj := infeas
		if !phase1 {
			obj = s.objective()
		}
		if obj < s.lastObj-1e-12 {
			s.lastObj = obj
			s.stall = 0
			s.bland = false
		} else {
			s.stall++
			if s.stall > 1000 {
				if !s.bland {
					s.stats.BlandActivations++
				}
				s.bland = true
			}
		}

		// Pricing.
		s.phaseCosts(phase1)
		copy(s.y, s.d)
		s.f.Btran(s.y)
		enter, sigma := s.price(phase1, s.opt.OptTol)
		if enter < 0 {
			if phase1 {
				return Infeasible
			}
			// Refactorize and recompute the basics once at optimality so the
			// extracted point is a bitwise function of the final basis and
			// bounds alone — independent of the pivot path and eta history.
			// Warm and cold solves that end at the same vertex therefore
			// return identical X, which the experiment sweeps' warm-vs-cold
			// output gate relies on.
			if err := s.refactorize(); err != nil {
				return NumericalFailure
			}
			return Optimal
		}

		// Direction.
		rows, vals := s.column(enter)
		for i := range s.w {
			s.w[i] = 0
		}
		for k, r := range rows {
			s.w[r] = vals[k]
		}
		s.f.Ftran(s.w)
		s.wnz = appendNonzeros(s.wnz[:0], s.w)

		rt := s.ratioTest(enter, sigma, phase1)
		if math.IsInf(rt.t, 1) {
			if phase1 {
				// The phase-1 objective is bounded below by zero, so an
				// unbounded ray means the factorization has degraded.
				if err := s.refactorize(); err != nil {
					return NumericalFailure
				}
				s.iters++
				continue
			}
			return Unbounded
		}

		if rt.blockPos < 0 {
			// Bound flip: no basis change.
			s.stepBasics(sigma * rt.t)
			if s.state[enter] == stLower {
				s.state[enter] = stUpper
			} else {
				s.state[enter] = stLower
			}
			s.xv[enter] = s.nonbasicValue(enter)
			s.iters++
			s.stats.BoundFlips++
			continue
		}

		// Pivot: try the factor update first so a failed update leaves the
		// bookkeeping untouched. The devex pivot row must be extracted from
		// the pre-pivot factorization, before the update appends its eta.
		devex := !s.bland && s.opt.Pricing == PricingDevex
		if devex {
			s.computeRho(rt.blockPos)
		}
		if err := s.f.Update(rt.blockPos, s.w, s.wnz, s.opt.PivotTol); err != nil {
			if err2 := s.refactorize(); err2 != nil {
				return NumericalFailure
			}
			s.iters++
			continue
		}
		if devex {
			s.devexUpdate(enter, s.basis[rt.blockPos], rt.blockPos)
		}
		entVal := s.xv[enter] + sigma*rt.t
		s.stepBasics(sigma * rt.t)
		leave := s.basis[rt.blockPos]
		if rt.toUpper {
			s.state[leave] = stUpper
			s.xv[leave] = s.hi[leave]
		} else {
			s.state[leave] = stLower
			s.xv[leave] = s.lo[leave]
		}
		s.pos[leave] = -1
		s.basis[rt.blockPos] = enter
		s.pos[enter] = int32(rt.blockPos)
		s.state[enter] = stBasic
		s.xv[enter] = entVal
		s.iters++
		if phase1 {
			s.stats.Phase1Pivots++
		} else {
			s.stats.Phase2Pivots++
		}
		if rt.t == 0 {
			s.stats.DegenerateSteps++
		}

		if s.f.NumEtas() >= s.opt.RefactorEvery {
			if err := s.refactorize(); err != nil {
				return NumericalFailure
			}
		}
		if s.opt.Logf != nil && s.iters%1000 == 0 {
			s.opt.Logf("lp %s: iter=%d phase1=%v obj=%.6g infeas=%.3g etas=%d",
				s.p.name, s.iters, phase1, s.objective(), infeas, s.f.NumEtas())
		}
	}
}

// stepBasics moves the basic variables by −step·w along the entering
// direction.
func (s *simplex) stepBasics(step float64) {
	for _, k := range s.wnz {
		s.xv[s.basis[k]] -= step * s.w[k]
	}
}

func (s *simplex) objective() float64 {
	var v float64
	for _, j := range s.costIdx {
		v += s.cost[j] * s.xv[j]
	}
	return v
}

// extract packages the current point into a Solution.
func (s *simplex) extract(status Status) *Solution {
	s.stats.Refactorizations = s.refacts
	sol := &Solution{
		Status:           status,
		Iterations:       s.iters,
		Refactorizations: s.refacts,
		Stats:            s.stats,
		X:                make([]float64, s.n),
		Dual:             make([]float64, s.m),
	}
	copy(sol.X, s.xv[:s.n])
	sol.Objective = s.objective()
	sol.RowActivity = s.p.Activity(sol.X)
	if status == Optimal {
		s.phaseCosts(false)
		copy(s.y, s.d)
		s.f.Btran(s.y)
		copy(sol.Dual, s.y)
		sol.Basis = s.snapshotBasis()
	}
	return sol
}
