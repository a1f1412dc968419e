package lp

import "fmt"

// DiffFactorizeAfter runs the simplex on p for at most iters iterations and
// then factorizes the basis it stopped on with both Factor.Factorize and
// factorizeReference. It returns the iterations actually run and a
// description of the first difference between the two factorizations ("" when
// they are bit-identical). It exists for the external tests that take their
// LPs from internal/core, which this package cannot import.
func DiffFactorizeAfter(p *Problem, opts Options, iters int) (ran int, diff string) {
	opts.MaxIterations = iters
	p.compile()
	s := newSimplex(p, opts)
	s.run()
	var got, want Factor
	diff, err := factorizeBoth(&got, &want, s.m, func(k int) ([]int32, []float64) {
		return s.column(s.basis[k])
	}, s.opt.PivotTol)
	if diff == "" && err != nil {
		diff = fmt.Sprintf("basis reached by the solver does not factorize: %v", err)
	}
	return s.iters, diff
}
