package sim

import (
	"context"
	"fmt"

	"repro/internal/platform"
	"repro/internal/rcnet"
	"repro/internal/stepper"
	"repro/internal/units"
)

// maxGangWidth bounds how many runs one gang steps in lock-step: it caps
// the gang's member slices (its models, right-hand sides and results)
// and matches the top bucket of the batch-width histogram. It does not
// size the solve scratch: the scalar SolveBatch panel is 2·n
// temperatures at any width.
const maxGangWidth = 32

// gangKey identifies runs whose per-tick thermal solves can share one
// factorization: the same shared platform (identical grid, boundary
// config and symbolic analysis — and, crucially, identical matrices for
// equal flows) advanced with the same base tick.
type gangKey struct {
	p    *platform.Platform
	tick units.Second
}

// gangable reports whether a config can be co-scheduled: it must use the
// fixed engine (the adaptive engine's solve cadence is data-dependent, so
// gang members would fall out of lock-step).
func gangable(cfg Config) bool {
	return cfg.Stepper.Kind == stepper.Fixed
}

// planJobs partitions config indices into worker jobs. With at least one
// free slot per config, every config runs solo — the status quo, zero
// overhead. When configs outnumber slots, gangable configs sharing a
// gangKey are grouped into lock-step gangs of roughly len(cfgs)/slots
// runs (capped at maxGangWidth) so batched solves absorb the
// oversubscription; everything else stays solo. The partition depends
// only on (cfgs, slots), and a ganged run's trajectory is bit-identical
// to its solo run, so results never depend on the worker count.
func planJobs(cfgs []Config, slots int) [][]int {
	jobs := make([][]int, 0, len(cfgs))
	if len(cfgs) <= slots {
		for i := range cfgs {
			jobs = append(jobs, []int{i})
		}
		return jobs
	}
	width := (len(cfgs) + slots - 1) / slots
	if width > maxGangWidth {
		width = maxGangWidth
	}
	open := make(map[gangKey]int) // key → index into jobs of the open gang
	for i, cfg := range cfgs {
		if width < 2 || !gangable(cfg) {
			jobs = append(jobs, []int{i})
			continue
		}
		key := gangKey{cfg.Platform, cfg.Tick}
		j, ok := open[key]
		if !ok {
			open[key] = len(jobs)
			jobs = append(jobs, make([]int, 0, width))
			j = open[key]
		}
		jobs[j] = append(jobs[j], i)
		if len(jobs[j]) >= width {
			delete(open, key) // gang full; the next match opens a new one
		}
	}
	return jobs
}

// runGang builds and advances the runs of one gang in lock-step,
// batching each tick's thermal solves through rcnet.BatchStepper. Every
// run's trajectory is bit-identical to its solo Run: the pre-solve and
// post-solve phases are the fixed engine's own halves, and the batched
// solve is bit-identical to the serial one. Runs leave the gang as they
// reach their configured duration (members may have different
// durations). Per-run failures (construction, tick phases) drop that run
// and keep the rest going, like RunAll's solo path; a solver hard error
// inside the batched sweep is fatal for the gang's unfinished members,
// since they share the failing system. Returns the error of the
// lowest-index failing config, nil if all succeeded.
func runGang(ctx context.Context, cfgs []Config, idxs []int, out []*Result) error {
	type member struct {
		idx    int
		s      *Sim
		eng    stepper.SplitEngine
		startT units.Second // time before the in-flight step (observer's measured flag)
	}
	var firstErr error
	errIdx := len(cfgs)
	record := func(idx int, err error) {
		if err != nil && idx < errIdx {
			firstErr, errIdx = err, idx
		}
	}

	var ctr *rcnet.BatchCounters
	live := make([]member, 0, len(idxs))
	for _, idx := range idxs {
		if err := ctx.Err(); err != nil {
			return err
		}
		s, err := New(ctx, cfgs[idx])
		if err != nil {
			record(idx, err)
			continue
		}
		eng, ok := s.engine.(stepper.SplitEngine)
		if !ok {
			// planJobs only gangs fixed-engine configs; stay safe if that
			// invariant ever loosens.
			r, err := s.runToEnd(ctx)
			if err != nil {
				record(idx, err)
				continue
			}
			out[idx] = r
			continue
		}
		if ctr == nil {
			ctr = cfgs[idx].BatchCounters
		}
		live = append(live, member{idx: idx, s: s, eng: eng})
	}

	st := rcnet.NewBatchStepper(ctr)
	models := make([]*rcnet.Model, 0, len(live))
	tick := units.Second(0)
	if len(live) > 0 {
		tick = live[0].s.Cfg.Tick
	}
	for len(live) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Pre-solve phases; retire finished runs, drop failed ones.
		kept := live[:0]
		for _, m := range live {
			if m.s.time >= m.s.Cfg.Duration {
				out[m.idx] = m.s.Result()
				continue
			}
			m.startT = m.s.time
			if err := m.s.stepPrepare(m.eng); err != nil {
				record(m.idx, fmt.Errorf("sim: step at t=%v: %w", m.s.time, err))
				continue
			}
			kept = append(kept, m)
		}
		live = kept
		if len(live) == 0 {
			break
		}

		// One batched sweep serves every member sharing a factor key.
		models = models[:0]
		for _, m := range live {
			models = append(models, m.s.Model)
		}
		if err := st.Step(models, tick); err != nil {
			m := live[0]
			record(m.idx, fmt.Errorf("sim: step at t=%v: %w", m.s.time, err))
			return firstErr
		}
		widths := st.Widths()

		// Post-solve phases and emission.
		kept = live[:0]
		for i, m := range live {
			if widths[i] > 1 {
				m.s.batchedSolves++
			}
			if err := m.s.stepFinish(m.eng); err != nil {
				record(m.idx, fmt.Errorf("sim: step at t=%v: %w", m.s.time, err))
				continue
			}
			if obs := m.s.Cfg.Observer; obs != nil {
				obs(m.s, m.startT >= 0)
			}
			kept = append(kept, m)
		}
		live = kept
	}
	return firstErr
}

// stepPrepare is the first half of Step for the gang driver: recycle the
// consumed tick records (the fixed engine always leaves exactly one
// finalized, emitted tick) and run the engine's pre-solve phases.
func (s *Sim) stepPrepare(eng stepper.SplitEngine) error {
	carry := s.pendN - s.completedN
	for i := 0; i < carry; i++ {
		s.recs[i], s.recs[s.completedN+i] = s.recs[s.completedN+i], s.recs[i]
	}
	s.pendN, s.completedN, s.emitNext = carry, 0, 0
	return eng.AdvancePrepare(enginePhases{s})
}

// stepFinish is the second half: finalize the solved tick, then emit it —
// Step's own epilogue.
func (s *Sim) stepFinish(eng stepper.SplitEngine) error {
	if err := eng.AdvanceFinish(enginePhases{s}); err != nil {
		return err
	}
	if s.completedN == 0 {
		return fmt.Errorf("sim: stepping engine completed no tick")
	}
	rec := &s.recs[s.emitNext]
	s.emitNext++
	return s.emit(rec)
}
