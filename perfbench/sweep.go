package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/coolsim"
)

// sweepSetups is how many cold set-ups a sweep run makes; setup_s and
// setup_mb report the median. One takes about half a second, so a
// single one is mostly noise.
const sweepSetups = 15

// runSweep drives sweep: co-scheduled coolsim.RunMany batches of short
// 23×20 runs drawn over the paper's evaluation matrix, on a warm
// PlatformCache, one batch per operation. Set-up is a cold prebuild of
// the platform shape the batches use. The run is sweepSetups rounds,
// each a set-up and then an equal share of the timed phase on the cache
// it built, so the set-ups sample the host over the whole run.
func runSweep(ctx context.Context, o *options) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(o.seed))
	tr := o.tracer
	var reps []*coolsim.Report
	var pc *coolsim.PlatformCache
	var op int64
	for round := 1; round <= sweepSetups || out.attempted < minOps; round++ {
		pc = nil // let the previous round's cache be collected
		runtime.GC()
		t0 := time.Now()
		sid := tr.begin("setup", 0, -1)
		pc = coolsim.NewPlatformCache(0)
		id := tr.begin("platform.prebuild", sid, -1)
		err := pc.Prebuild(ctx, sweepShape())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.end(sid)
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		out.setupMB = append(out.setupMB, liveHeapMB())

		share := o.seconds * float64(round) / sweepSetups // timed seconds by this round's end
		w := startWindow(pc)
		for out.timedS+time.Since(w.start).Seconds() < share {
			op++
			batch := sweepBatch(rng)
			opTr := o.opTracer(op)
			t := time.Now()
			id := opTr.begin("sweep.batch", 0, op)
			got, err := coolsim.RunMany(ctx, batch, coolsim.WithPlatformCache(pc), coolsim.WithWorkers(workers))
			opTr.end(id)
			d := time.Since(t)
			out.attempted++
			if err != nil {
				out.fail(1, err)
				continue
			}
			out.addLat(d, o.traced(op))
			for i, r := range got {
				if err := o.ref.check(batch[i], r); err != nil {
					out.fail(1, fmt.Errorf("sweep batch %d member %d: %w", op, i, err))
					break
				}
			}
			for _, r := range got {
				out.ticks += int64(r.BaseTicks)
			}
			if tr != nil {
				reps = append(reps, got...)
			}
		}
		w.stop(out)
	}
	if tr == nil {
		return out, nil
	}
	m := out.layer
	if err := probeLayers(ctx, tr, probeShape{layers: 2, nx: 23, ny: 20, liquid: true,
		lut: true, weights: true, steady: true,
		sc: sweepScenario(coolsim.CoolingMax, coolsim.PolicyLB, "Web-med")}, pc, m); err != nil {
		return nil, err
	}
	reportRatios(m, reps)
	if err := probeService(ctx, o, out); err != nil {
		return nil, err
	}
	return out, nil
}
