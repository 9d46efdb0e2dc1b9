package sim

import (
	"context"

	"repro/internal/par"
)

// RunAll executes one Run per config on a worker pool and returns the
// results in input order. workers ≤ 0 selects runtime.NumCPU().
//
// Scenario runs are embarrassingly parallel: every Run builds its own
// thermal model, scheduler, pump and workload generator, and each
// generator (and fault injector) is seeded from its own Config.Seed, so
// results are bit-identical to a serial loop for every worker count.
// Configs that share a platform read its LUT, weight table and factors
// concurrently, which is safe — they are immutable once built.
//
// When configs outnumber worker slots, runs that share a platform, base
// tick and the fixed stepping engine are co-scheduled into lock-step
// gangs: each tick's thermal solves against a common (flow > 0, dt)
// factorization — Max and Var runs alike while their pumps run — are
// served by one multi-RHS SolveBatch call on one factor acquisition (on
// the scalar kernels, sweeps that stream L once per pair of runs, see
// rcnet.BatchStepper). Ganging changes only how solves are computed,
// never their values — results stay byte-identical to a serial loop at
// every worker count.
// Config.BatchCounters observes the batching.
//
// Cancellation is prompt: every in-flight Run watches ctx tick by tick and
// no queued config starts once ctx is done, so RunAll returns ctx.Err()
// within about one simulated tick of cancellation. On plain failure an
// error from the failing config of the lowest-index job is returned;
// results of the configs that did succeed are still filled in.
func RunAll(ctx context.Context, cfgs []Config, workers int) ([]*Result, error) {
	out := make([]*Result, len(cfgs))
	jobs := planJobs(cfgs, par.Workers(workers))
	err := par.ForEach(ctx, workers, len(jobs), func(j int) error {
		idxs := jobs[j]
		if len(idxs) == 1 {
			r, err := Run(ctx, cfgs[idxs[0]])
			if err != nil {
				return err
			}
			out[idxs[0]] = r
			return nil
		}
		return runGang(ctx, cfgs, idxs, out)
	})
	return out, err
}
