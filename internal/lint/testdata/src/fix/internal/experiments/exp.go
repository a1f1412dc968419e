// Package experiments is the panicsafe + coldsolve golden fixture: it
// replicates the sweep engine's forEach/sweepMap shapes and calls the
// metrics/core/lp stubs by their scoped import paths.
package experiments

import (
	"fix/internal/core"
	"fix/internal/lp"
	"fix/internal/metrics"
)

// Options mirrors the real sweep engine's receiver type.
type Options struct{ Workers int }

// forEach mirrors the worker-pool fan-out entry point.
func (o Options) forEach(n int, job func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := job(i); err != nil {
			return err
		}
	}
	return nil
}

// sweepMap mirrors the mapping wrapper.
func sweepMap(o Options, n int, f func(i int) (float64, error)) ([]float64, error) {
	out := make([]float64, n)
	err := o.forEach(n, func(i int) error {
		r, err := f(i)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func summarize(xs []float64) float64 {
	m := metrics.Mean(xs) // want `metrics.Mean panics on empty data; call metrics.MeanOK`
	if v, ok := metrics.MeanOK(xs); ok {
		m += v
	}
	q := metrics.Quantiles(xs, 0.5) // want `metrics.Quantiles panics on empty data`
	_ = metrics.Median(xs)          // want `metrics.Median panics on empty data`
	_ = metrics.Box(xs)             // want `metrics.Box panics on empty data`
	_ = metrics.Quantile(xs, 0.9)   // want `metrics.Quantile panics on empty data`
	return m + q[0]
}

// coldSweep calls one-shot solve entry points directly inside worker
// closures: the coldsolve findings.
func coldSweep(o Options) error {
	_, err := sweepMap(o, 4, func(i int) (float64, error) {
		a, err := core.SolveReplication(0.4) // want `one-shot SolveReplication inside a sweep worker closure`
		if err != nil {
			return 0, err
		}
		d := lp.Solve() // want `one-shot Solve inside a sweep worker closure`
		return a.Load + d.Seconds(), nil
	})
	return err
}

// solveReplicationCold mirrors the real deliberate-cold wrapper: routing a
// one-shot solve through a *Cold-named function is the sanctioned escape
// hatch, so its top-level call site is not flagged.
func solveReplicationCold(mll float64) (*core.Assignment, error) {
	return core.SolveReplication(mll)
}

// warmSweep shows both sanctioned shapes — the cold wrapper and the
// suppression directive — producing no findings.
func warmSweep(o Options) error {
	_, err := sweepMap(o, 4, func(i int) (float64, error) {
		a, err := solveReplicationCold(0.4)
		if err != nil {
			return 0, err
		}
		//lint:ignore coldsolve fixture exercising suppression of a deliberate cold point
		b, err := core.SolveAggregation(1)
		if err != nil {
			return 0, err
		}
		return a.Load + b.Load, nil
	})
	return err
}
