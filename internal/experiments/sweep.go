package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nwids/internal/core"
)

// This file is the parallel sweep engine. Every figure's sweep grid —
// (topology × sweep point), (traffic matrix × architecture), (θ × random
// configuration) — is flattened into an indexed job list and fanned out to
// a bounded worker pool; results land in index-addressed slots and are
// aggregated afterwards in sweep-point order. Because each LP solve is
// self-contained (scenarios are read-only during solves, the solver holds
// no global state) and aggregation is sequential, the rendered output is
// byte-identical for every worker count, including -workers 1.

// workerCount resolves the configured pool size: Options.Workers when
// positive, otherwise runtime.GOMAXPROCS(0).
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs job(i) for every i in [0, n) on a pool of at most
// o.workerCount() goroutines and waits for all of them to finish. Jobs must
// communicate results through index-addressed slots (never shared appends)
// so that aggregation order does not depend on completion order. After a
// job fails, workers skip the jobs above its index but still run the ones
// below it, so the lowest-index error is returned whatever the completion
// order: the error surfaced is deterministic for errors that are
// deterministic functions of their sweep point.
func (o Options) forEach(n int, job func(i int) error) error {
	workers := o.workerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := o.runJob(0, i, job); err != nil {
				return err
			}
		}
		return nil
	}
	o.Obs.Gauge("sweep.workers").Max(float64(workers))
	errs := make([]error, n)
	var lowestFailed atomic.Int64 // n until a job fails
	lowestFailed.Store(int64(n))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if int64(i) > lowestFailed.Load() {
					continue
				}
				if errs[i] = o.runJob(w, i, job); errs[i] != nil {
					for low := lowestFailed.Load(); int64(i) < low; low = lowestFailed.Load() {
						if lowestFailed.CompareAndSwap(low, int64(i)) {
							break
						}
					}
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runJob executes one sweep point, labeling per-worker job counts and
// per-job wall time in the run's metrics registry.
func (o Options) runJob(worker, i int, job func(i int) error) error {
	if o.Obs == nil {
		return job(i)
	}
	sp := o.Obs.Timer("sweep.job").Start()
	defer func() {
		sp.Stop()
		o.Obs.Counter("sweep.jobs").Inc()
		o.Obs.Counter(fmt.Sprintf("sweep.worker.%d.jobs", worker)).Inc()
	}()
	return job(i)
}

// sweepMap runs f over every element of items on the options' worker pool
// and returns the results in item order (not completion order).
func sweepMap[T, R any](o Options, items []T, f func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := o.forEach(len(items), func(i int) error {
		r, err := f(i, items[i])
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

// scenariosFor builds the default evaluation scenario for every configured
// topology concurrently, preserving o.Topologies order. The returned
// scenarios are read-only during solves, so one scenario may safely be
// shared by every concurrent sweep point that uses it.
func scenariosFor(o Options) ([]*core.Scenario, error) {
	return sweepMap(o, o.Topologies, func(_ int, name string) (*core.Scenario, error) {
		return scenarioFor(name)
	})
}
