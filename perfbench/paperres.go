package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/coolsim"
)

const (
	// paperResSetups is the fewest cold set-ups a paper-res run makes;
	// each takes about 2 s.
	paperResSetups = 3
	// paperResBlock is how many Session.Steps one paper-res operation
	// times. A block of about 200 ms keeps a single host preemption from
	// setting the p90, and a 40 s run still makes more than minOps.
	paperResBlock = 5
)

// runPaperRes drives paper-res: sessions of one 2-layer Max-flow LB
// scenario at 115×100, one block of paperResBlock Session.Steps per
// operation. Each session sets up from cold — platform prebuild,
// NewSession and the first Step, which pays the one factorization — and
// its remaining ticks are timed. Sessions repeat until the timed phase
// has lasted --seconds, made minOps operations and covered
// paperResSetups set-ups.
func runPaperRes(ctx context.Context, o *options) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(o.seed))
	tr := o.tracer
	var reps []*coolsim.Report
	var pc *coolsim.PlatformCache
	var op int64
	for len(out.setupS) < paperResSetups || out.timedS < o.seconds || out.attempted < minOps {
		sc := paperResScenario(1 + rng.Int63n(paperResTraceSeeds))
		pc = nil // let the previous session's cache be collected
		runtime.GC()
		t0 := time.Now()
		sid := tr.begin("setup", 0, -1)
		pc = coolsim.NewPlatformCache(1)
		id := tr.begin("platform.prebuild", sid, -1)
		err := pc.Prebuild(ctx, sc)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("sim.new", sid, -1)
		ss, err := coolsim.NewSession(ctx, sc, coolsim.WithPlatformCache(pc))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("sim.first_tick", sid, -1)
		_, err = ss.Step()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.end(sid)
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		out.setupMB = append(out.setupMB, liveHeapMB())

		// The first tick was set-up; the rest are whole blocks.
		timed := ss.TotalTicks() - 1
		if timed%paperResBlock != 0 {
			return nil, fmt.Errorf("paper-res session has %d timed ticks, not a multiple of %d",
				timed, paperResBlock)
		}
		w := startWindow(pc)
		var sessionOps int64
		for range timed / paperResBlock {
			op++
			traced := o.traced(op)
			t := time.Now()
			id := o.opTracer(op).begin("sim.block", 0, op)
			var err error
			for i := 0; i < paperResBlock && err == nil; i++ {
				_, err = ss.Step()
			}
			o.opTracer(op).end(id)
			d := time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("paper-res block %d: %w", op, err)
			}
			out.attempted++
			sessionOps++
			out.addLat(d, traced)
		}
		w.stop(out)

		rep := ss.Report()
		reps = append(reps, rep)
		out.ticks += int64(rep.BaseTicks) - 1 // the first tick was set-up
		if err := o.ref.check(sc, rep); err != nil {
			out.fail(sessionOps, fmt.Errorf("paper-res session: %w", err))
		}
	}
	if tr == nil {
		return out, nil
	}
	if err := probeLayers(ctx, tr, probeShape{layers: 2, nx: 115, ny: 100, liquid: true,
		sc: paperResScenario(1)}, pc, out.layer); err != nil {
		return nil, err
	}
	reportRatios(out.layer, reps)
	return out, nil
}
