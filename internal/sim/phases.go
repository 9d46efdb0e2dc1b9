package sim

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/pump"
	"repro/internal/sched"
	"repro/internal/stepper"
	"repro/internal/units"
)

// The tick loop's phase split. The monolithic Step of the pre-stepper
// simulator is carved into the stages a stepping engine sequences:
//
//   - runTick: everything that always happens at the base tick — workload
//     arrivals, scheduling, DPM, the power model (against the held
//     temperatures of the last thermal solve) and the flow-controller
//     transition bookkeeping. Appends one pending tick record.
//   - pushFlow / installTickPower / installMeanPower: move the staged
//     inputs into the thermal model when the engine is ready to solve.
//   - solveThermal / solveThermalEstimate (+ save/restore): advance the
//     RC network by one base tick or one macro-step.
//   - finalizeExact / finalizeInterpolated: derive each pending tick's
//     temperatures from the solved field.
//   - completeMacro: queue finalized ticks for emission and publish the
//     new held state.
//
// Step then emits one finalized tick per call — samples always appear at
// the base tick, however the engine stepped internally.

// derived is the temperature view one tick exposes: the per-core, per-
// block and per-unit temperatures plus the die maximum, everything the
// policies, metrics and streaming samples consume.
type derived struct {
	tmax       units.Celsius
	coreTemps  []units.Celsius
	blockTemps [][]units.Celsius // per-block mean (leakage evaluation)
	unitTemps  []units.Celsius   // per-block hottest cell (gradient metric)
}

func (s *Sim) allocDerived(d *derived) {
	nblocks := 0
	for _, layer := range s.Stack.Layers {
		nblocks += len(layer.Blocks)
	}
	// One backing array for the per-layer views plus the flat copy.
	flat := make([]units.Celsius, 2*nblocks)
	d.coreTemps = make([]units.Celsius, len(s.cores))
	d.blockTemps = make([][]units.Celsius, len(s.Stack.Layers))
	for li, layer := range s.Stack.Layers {
		n := len(layer.Blocks)
		d.blockTemps[li], flat = flat[:n:n], flat[n:]
	}
	d.unitTemps = flat
}

func copyDerived(dst, src *derived) {
	dst.tmax = src.tmax
	copy(dst.coreTemps, src.coreTemps)
	for li := range dst.blockTemps {
		copy(dst.blockTemps[li], src.blockTemps[li])
	}
	copy(dst.unitTemps, src.unitTemps)
}

// lerpDerived fills dst with a + f·(b − a), the linear interpolation the
// intermediate ticks of an accepted macro-step are emitted with.
func lerpDerived(dst, a, b *derived, f float64) {
	ff := units.Celsius(f)
	dst.tmax = a.tmax + ff*(b.tmax-a.tmax)
	for i := range dst.coreTemps {
		dst.coreTemps[i] = a.coreTemps[i] + ff*(b.coreTemps[i]-a.coreTemps[i])
	}
	for li := range dst.blockTemps {
		da, db := a.blockTemps[li], b.blockTemps[li]
		for bi := range dst.blockTemps[li] {
			dst.blockTemps[li][bi] = da[bi] + ff*(db[bi]-da[bi])
		}
	}
	for i := range dst.unitTemps {
		dst.unitTemps[i] = a.unitTemps[i] + ff*(b.unitTemps[i]-a.unitTemps[i])
	}
}

// readDerived refreshes d from the thermal model's current field.
func (s *Sim) readDerived(d *derived) {
	for i, c := range s.cores {
		d.coreTemps[i] = s.Model.BlockMaxTemp(c.Layer, c.Block).ToCelsius()
	}
	u := 0
	for li, layer := range s.Stack.Layers {
		for bi, b := range layer.Blocks {
			d.blockTemps[li][bi] = s.Model.BlockTemp(li, bi).ToCelsius()
			// Unit sensors: cores report their hot spot (where the
			// thermal sensor sits), uniform blocks their mean.
			if b.Kind == floorplan.KindCore {
				d.unitTemps[u] = s.Model.BlockMaxTemp(li, bi).ToCelsius()
			} else {
				d.unitTemps[u] = d.blockTemps[li][bi]
			}
			u++
		}
	}
	d.tmax = s.Model.MaxDieTemp().ToCelsius()
}

// tickRec is one base tick's record between running and emission: the
// staged thermal inputs, the per-tick observables, and (once finalized)
// the temperatures it is emitted with.
type tickRec struct {
	from, to   units.Second
	measured   bool
	completed  int
	chipW      units.Watt
	setting    int // delivered pump setting; -1 for air-cooled runs
	pumpW      units.Watt
	flow       units.LitersPerMinute
	migrations int64
	balance    int64
	pending    int
	response   units.Second
	refits     int
	blocks     [][]float64 // staged per-layer block power
	d          derived
}

// enginePhases adapts *Sim to the stepper.Phases contract.
type enginePhases struct{ s *Sim }

func (p enginePhases) BaseTick() units.Second { return p.s.Cfg.Tick }

func (p enginePhases) RemainingTicks() int {
	if r := p.s.totalTicks - p.s.fSteps; r > 0 {
		return r
	}
	return 0
}

func (p enginePhases) PendingTicks() int { return p.s.pendN - p.s.completedN }

func (p enginePhases) HeldTmaxC() float64 { return float64(p.s.held.tmax) }

func (p enginePhases) ThresholdMarginC() float64 {
	t := float64(p.s.held.tmax)
	margin := -1.0
	for _, edge := range p.s.thresholds {
		d := t - edge
		if d < 0 {
			d = -d
		}
		if margin < 0 || d < margin {
			margin = d
		}
	}
	return margin
}

func (p enginePhases) RunTick(decide bool) (stepper.Events, error) {
	return p.s.runTick(decide)
}

func (p enginePhases) PushFlow() error { return p.s.pushFlow() }

func (p enginePhases) InstallTickPower(i int) error {
	s := p.s
	rec := &s.recs[s.completedN+i]
	for li := range rec.blocks {
		if err := s.Model.SetLayerPower(li, rec.blocks[li]); err != nil {
			return err
		}
	}
	return nil
}

func (p enginePhases) InstallMeanPower(n int) error {
	s := p.s
	inv := 1 / float64(n)
	for li := range s.blocksBuf {
		mean := s.blocksBuf[li]
		for bi := range mean {
			mean[bi] = 0
		}
		for k := 0; k < n; k++ {
			for bi, v := range s.recs[s.completedN+k].blocks[li] {
				mean[bi] += v
			}
		}
		for bi := range mean {
			mean[bi] *= inv
		}
		if err := s.Model.SetLayerPower(li, mean); err != nil {
			return err
		}
	}
	return nil
}

func (p enginePhases) SaveThermal() { p.s.Model.SaveTransient(&p.s.thermSnap) }

func (p enginePhases) RestoreThermal() {
	// The snapshot always exists (SaveThermal precedes every solve) and
	// matches this model, so the error path is unreachable.
	_ = p.s.Model.RestoreTransient(&p.s.thermSnap)
}

func (p enginePhases) SolveThermal(dt units.Second) error { return p.s.Model.Step(dt) }

func (p enginePhases) SolveThermalEstimate(dt units.Second) (float64, error) {
	return p.s.Model.StepWithEstimate(dt)
}

func (p enginePhases) FinalizeExact(i int) error {
	s := p.s
	s.readDerived(&s.recs[s.completedN+i].d)
	return nil
}

func (p enginePhases) FinalizeInterpolated(n int) error {
	s := p.s
	s.readDerived(&s.endScratch)
	for i := 0; i < n; i++ {
		rec := &s.recs[s.completedN+i]
		if i == n-1 {
			copyDerived(&rec.d, &s.endScratch)
			continue
		}
		lerpDerived(&rec.d, &s.held, &s.endScratch, float64(i+1)/float64(n))
	}
	return nil
}

func (p enginePhases) CompleteMacro(n int) error {
	s := p.s
	if n < 1 || s.completedN+n > s.pendN {
		return fmt.Errorf("sim: complete %d of %d pending ticks", n, s.pendN-s.completedN)
	}
	s.completedN += n
	copyDerived(&s.held, &s.recs[s.completedN-1].d)
	return nil
}

// runTick executes the base-tick stages for the next forward tick against
// the held temperatures and appends a pending record. It never touches
// the thermal model: power is staged into the record, a delivered-flow
// change is only reported (the engine decides when pushFlow runs, since
// every pending tick of the old flow must be solved first).
func (s *Sim) runTick(decide bool) (stepper.Events, error) {
	var ev stepper.Events
	if s.pendN >= len(s.recs) {
		return ev, fmt.Errorf("sim: pending tick buffer full (%d)", s.pendN)
	}
	dt := s.Cfg.Tick
	from := s.fTime
	to := s.tick0 + units.Second(s.fSteps+1)*dt

	// Workload arrivals (UtilSchedule may modulate generator intensity).
	if s.Cfg.UtilSchedule != nil {
		s.Gen.UtilScale = s.Cfg.UtilSchedule(from)
	}
	arrivals := s.Gen.Arrivals(from, to)

	// Policies act on observed (possibly faulty) temperatures; metrics
	// later use ground truth.
	obsCore, obsTmax := s.faults.observe(s.held.coreTemps, s.held.tmax)

	// Scheduling.
	if s.Cfg.Policy == sched.TALB && s.WTab != nil {
		if err := s.Sched.SetWeights(s.WTab.Lookup(obsTmax)); err != nil {
			return ev, err
		}
	}
	s.Sched.DecayRecent(dt)
	s.Sched.Assign(arrivals)
	s.Sched.Rebalance()
	if err := s.Sched.ReactiveMigrate(obsCore); err != nil {
		return ev, err
	}
	completed := s.Sched.ExecuteAt(from, dt)

	// DPM.
	for i := range s.Sched.Cores {
		s.idleBuf[i] = s.Sched.Cores[i].IdleTime
	}
	if err := s.Sched.BusyFractionsInto(s.busyBuf); err != nil {
		return ev, err
	}
	if err := s.DPM.StatesInto(s.statesBuf, s.busyBuf, s.idleBuf); err != nil {
		return ev, err
	}
	states := s.statesBuf
	for i := range states {
		s.Sched.Cores[i].Asleep = states[i] == power.StateSleep
	}

	// Power, staged into the tick record (leakage at the held block
	// temperatures — exactly the last solved field).
	act := power.Activity{
		CoreBusy:    s.busyBuf,
		CoreState:   states,
		MemActivity: s.Cfg.Bench.MemActivity(),
	}
	blocks := s.blocksBuf
	if err := s.Power.BlockPowersInto(blocks, act, s.held.blockTemps); err != nil {
		return ev, err
	}
	rec := &s.recs[s.pendN]
	powerDelta := 0.0
	for li := range blocks {
		copy(rec.blocks[li], blocks[li])
		prev := s.prevPower[li]
		for bi, v := range blocks[li] {
			d := v - prev[bi]
			if d < 0 {
				d = -d
			}
			if d > powerDelta {
				powerDelta = d
			}
			prev[bi] = v
		}
	}

	// Flow control: observation every tick (the predictor needs the full
	// series), decisions at the engine's control period.
	if s.Cfg.Cooling == LiquidVar {
		s.Flow.Observe(obsTmax)
		if decide {
			desired := s.Flow.Decide()
			if desired != s.applied && !s.inFlight {
				s.pending = desired
				s.pendingAt = to + pump.TransitionTime
				s.inFlight = true
			}
		}
		if s.inFlight && to >= s.pendingAt {
			s.applied = s.pending
			s.inFlight = false
		}
	}
	if s.Cfg.Cooling != Air {
		if eff := s.faults.effectiveSetting(s.applied); eff != s.delivered {
			s.delivered = eff
			ev.FlowChanged = true
		}
	}

	rec.from, rec.to = from, to
	rec.measured = from >= 0
	rec.completed = completed
	rec.chipW = power.Total(blocks)
	rec.migrations = s.Sched.Migrations()
	rec.balance = s.Sched.BalanceMoves()
	rec.pending = s.Sched.Pending()
	rec.response = s.Sched.MeanResponse()
	rec.refits = 0
	if s.Ctrl != nil {
		rec.refits = s.Ctrl.Refits()
	}
	if s.Cfg.Cooling == Air {
		rec.setting, rec.pumpW, rec.flow = -1, 0, 0
	} else {
		rec.setting = int(s.delivered)
		rec.pumpW = pump.Power(s.delivered)
		rec.flow = s.Pump.PerCavityFlow(s.delivered)
	}
	s.pendN++
	s.fSteps++
	s.fTime = to
	ev.ChipPowerW = float64(rec.chipW)
	ev.PowerDeltaW = powerDelta
	ev.HeldTmaxC = float64(s.held.tmax)
	return ev, nil
}

// pushFlow installs the delivered flow into the thermal model if it is
// not already there. Engines call it only once every pending tick of the
// previous flow has been solved.
func (s *Sim) pushFlow() error {
	if s.Cfg.Cooling == Air || s.Pump == nil {
		return nil
	}
	f := s.Pump.PerCavityFlow(s.delivered)
	if f == s.Model.Flow() {
		return nil
	}
	return s.Model.SetFlow(f)
}

// emit publishes one finalized tick: the visible temperature/pump/power
// state every accessor reads, the emitted clock, and (inside the
// measurement window) the metrics sample.
func (s *Sim) emit(rec *tickRec) error {
	copy(s.coreTemps, rec.d.coreTemps)
	for li := range s.blockTemps {
		copy(s.blockTemps[li], rec.d.blockTemps[li])
	}
	copy(s.unitTemps, rec.d.unitTemps)
	s.lastTmax = rec.d.tmax
	s.lastChip = rec.chipW
	s.outSetting = rec.setting
	s.outPumpW = rec.pumpW
	s.outFlow = rec.flow
	s.outMigrations = rec.migrations
	s.outBalance = rec.balance
	s.outPending = rec.pending
	s.outResponse = rec.response
	s.outRefits = rec.refits
	s.steps++
	s.time = rec.to

	if rec.measured {
		if s.Cfg.Cooling != Air {
			s.flowTime += float64(rec.flow) * float64(s.Cfg.Tick)
		}
		if err := s.Stats.Sample(rec.d.tmax, rec.d.coreTemps, rec.d.unitTemps,
			rec.chipW, rec.pumpW, rec.setting, s.Cfg.Tick, rec.completed); err != nil {
			return err
		}
	}
	return nil
}
