// Package par is the shared worker-pool primitive behind the concurrent
// experiment engine: deterministic fan-out of independent, index-addressed
// jobs over a bounded number of goroutines.
//
// Scenario simulations are embarrassingly parallel — every sim.Run owns its
// model, scheduler and RNG — so the engine only has to distribute indices
// and keep result collection ordered. Callers write results into
// preallocated per-index slots, which keeps output byte-identical to a
// serial run regardless of worker count or scheduling interleave.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: values above zero are used as
// given, anything else (the "default" request) becomes runtime.NumCPU().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ForEach runs fn(i) for every i in [0,n) on min(Workers(workers), n)
// goroutines and waits for all of them. Jobs are handed out through an
// atomic counter, so the set of executed indices is exactly [0,n) in every
// run even though the assignment of indices to workers is not.
//
// ctx is checked before every job is started: once it is canceled no new
// job begins, and ForEach returns ctx.Err() as soon as the jobs already in
// flight finish. Long-running fn bodies should watch ctx themselves for
// prompt exit.
//
// Absent cancellation, all n jobs run even when some fail; the returned
// error is the one from the lowest failing index, so error reporting is
// deterministic too. fn must confine its writes to per-index state (or
// synchronize itself).
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		// Serial fast path: identical semantics, no goroutine overhead,
		// and errors surface exactly as a plain loop would (first index
		// wins; later jobs still run to match the parallel contract).
		var first error
		firstIdx := n
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil && i < firstIdx {
				first, firstIdx = err, i
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return first
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
