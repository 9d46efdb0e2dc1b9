package stepper

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Refinement triggers of the adaptive engine.
const (
	// powerBand is the relative chip-power change (vs the macro-step's
	// opening tick) that ends the current macro-step: a workload
	// transition must be integrated at the base tick.
	powerBand = 0.02
	// powerBandW is the absolute per-block power change (W, vs the
	// previous tick) that ends the macro-step. Total chip power can sit
	// still while threads redistribute between cores — each move shifts
	// ~3 W of block power and ripples local temperatures — so the
	// distribution must be quiet too, not just the sum.
	powerBandW = 0.2
	// minMarginC refines to the base tick whenever the held maximum die
	// temperature is within this margin (°C) of a policy or metric
	// threshold (the 80 °C target, the 85 °C hot-spot/migration
	// threshold, the TALB weight bands).
	minMarginC = 0.5
)

// adaptiveEngine advances the thermal solve in macro-steps of up to
// Config.MaxStep while the workload is thermally quiet, with three layers
// of control:
//
//   - Event refinement: a delivered-flow change or a chip-power move
//     beyond powerBand ends the macro-step immediately (the tick
//     that saw the event carries over and is integrated at the base
//     tick), and a held temperature within minMarginC of a policy
//     threshold pins the engine to the base tick.
//   - Drift limiting: the macro-step length is capped so that, at the
//     drift rate observed over recent macro-steps, the held temperature
//     cannot cross the nearest policy threshold mid-step.
//   - Error control: every multi-tick macro-step is solved with a
//     step-doubling error estimate (one full step vs two half steps,
//     each a pair of cached-factor triangular sweeps); an estimate above
//     Config.ToleranceC rolls the step back and re-solves the interval
//     at base-tick resolution with the recorded per-tick powers.
//
// Growth is geometric — accepted macro-steps double the target length up
// to MaxStep; any event or rejection resets it to one base tick — so the
// engine locks onto long steps within a few intervals of a phase going
// quiet and falls back to the exact loop within one interval of it waking
// up.
type adaptiveEngine struct {
	cfg      Config
	ctr      Counters
	target   int     // macro-step length goal (base ticks, power of two)
	carry    bool    // a run tick is pending from the previous interval
	ticks    int     // base ticks run (control-period phase)
	prevTmax float64 // held Tmax at the last CompleteMacro
	drift    float64 // observed |ΔTmax| per base tick (°C)
	started  bool
}

func newAdaptive(cfg Config) *adaptiveEngine {
	return &adaptiveEngine{
		cfg:    cfg,
		target: 1,
		// Until measured, assume a fast drift so the first intervals stay
		// short; quiet phases re-measure it down within a few steps.
		drift: 1,
	}
}

// Counters implements Engine.
func (a *adaptiveEngine) Counters() Counters { return a.ctr }

// intervalLen picks the length of the next macro interval in base ticks.
func (a *adaptiveEngine) intervalLen(p Phases) int {
	n := a.target
	if a.carry {
		// The carried tick saw a flow or power transition: integrate it
		// alone at the base tick before growing again.
		return 1
	}
	margin := p.ThresholdMarginC()
	if margin <= minMarginC {
		return 1
	}
	// Cap the interval so the held temperature cannot drift across the
	// nearest threshold mid-step (2× safety on the observed rate).
	if d := a.drift; d > 1e-9 {
		if lim := int(margin / (2 * d)); lim < n {
			n = lim
		}
	}
	if r := p.RemainingTicks() + p.PendingTicks(); n > r {
		n = r
	}
	if n < 1 {
		return 1
	}
	// Round down to a power of two: interval lengths then reuse a handful
	// of dt factor keys — {1, 2, 4, ...}·tick, whose half-step
	// estimator keys coincide with the next ladder rung down — instead of
	// churning the solver's factor cache with arbitrary dts.
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	return pow2
}

// Advance runs one macro interval: the base-tick phases of every tick in
// it, then one thermal solve (with error control) covering them all.
func (a *adaptiveEngine) Advance(p Phases) error {
	tick := p.BaseTick()
	want := a.intervalLen(p)
	a.carry = false

	// Forward pass: run base ticks until the interval is full or an event
	// closes it early.
	var startPower float64
	ran := p.PendingTicks() // 0, or 1 when a tick carried over
	if ran > 0 {
		// The carried tick opens this interval; if it carried because the
		// flow changed, the new flow governs its thermal step (a no-op
		// otherwise).
		if err := p.PushFlow(); err != nil {
			return err
		}
	}
	quietFull := true
	for ran < want {
		ev, err := p.RunTick(a.ticks%a.cfg.ControlEvery == 0)
		if err != nil {
			return err
		}
		a.ticks++
		a.ctr.BaseTicks++
		ran++
		first := ran == 1
		if first {
			startPower = ev.ChipPowerW
			if ev.FlowChanged {
				// The new flow applies to this tick's thermal step; keep
				// the interval at one tick through the transient.
				if err := p.PushFlow(); err != nil {
					return err
				}
				want, quietFull = 1, false
			} else if ev.PowerDeltaW > powerBandW {
				// The tick opens on a power transient (vs the last tick of
				// the previous interval): integrate it alone.
				want, quietFull = 1, false
			}
			continue
		}
		if ev.FlowChanged || ev.PowerDeltaW > powerBandW ||
			a.powerShifted(startPower, ev.ChipPowerW) {
			// This tick belongs to the next interval (its thermal step
			// runs under the new conditions); close the current one
			// before it.
			ran--
			a.carry = true
			quietFull = false
			break
		}
	}
	if ran < 1 {
		return fmt.Errorf("stepper: adaptive interval closed with no ticks")
	}

	// Thermal solve over the interval.
	p.SaveThermal()
	if ran == 1 || ran&(ran-1) != 0 {
		// One tick, or an interval an event closed early at a
		// non-power-of-two length: integrate at the base tick. Base-dt
		// factors are always cached, whereas estimating at an arbitrary
		// ran·tick (and its half) would churn the solver's bounded
		// factor cache with one-off dt keys — refactorizations
		// costing far more than the sweeps a short macro-step saves.
		for i := 0; i < ran; i++ {
			if err := p.InstallTickPower(i); err != nil {
				return err
			}
			if err := p.SolveThermal(tick); err != nil {
				return err
			}
			if err := p.FinalizeExact(i); err != nil {
				return err
			}
		}
		a.ctr.Solves += ran
	} else {
		if err := p.InstallMeanPower(ran); err != nil {
			return err
		}
		est, err := p.SolveThermalEstimate(units.Second(ran) * tick)
		if err != nil {
			return err
		}
		a.ctr.Solves += 3
		if est <= a.cfg.ToleranceC {
			if err := p.FinalizeInterpolated(ran); err != nil {
				return err
			}
			a.ctr.MacroSteps++
			a.ctr.MacroTicks += ran
			if est > a.cfg.ToleranceC/2 {
				quietFull = false // accurate enough, but do not grow
			}
		} else {
			// Too coarse: roll back and integrate the recorded per-tick
			// powers at the base tick.
			p.RestoreThermal()
			for i := 0; i < ran; i++ {
				if err := p.InstallTickPower(i); err != nil {
					return err
				}
				if err := p.SolveThermal(tick); err != nil {
					return err
				}
				if err := p.FinalizeExact(i); err != nil {
					return err
				}
			}
			a.ctr.Solves += ran
			a.ctr.Refinements++
			a.target = 1
			quietFull = false
		}
	}
	if err := p.CompleteMacro(ran); err != nil {
		return err
	}
	a.observeDrift(p.HeldTmaxC(), ran)
	a.updateTarget(p, quietFull && ran >= want)
	return nil
}

// powerShifted reports whether the chip power moved beyond the stability
// band relative to the interval's opening tick.
func (a *adaptiveEngine) powerShifted(start, now float64) bool {
	ref := math.Abs(start)
	if ref < 1 {
		ref = 1 // watt floor: near-zero idle power must not hair-trigger
	}
	return math.Abs(now-start) > powerBand*ref
}

// observeDrift updates the per-tick temperature drift estimate from the
// held Tmax movement across the completed interval. The estimate decays
// slowly so one still interval does not erase a known fast drift.
func (a *adaptiveEngine) observeDrift(tmax float64, ran int) {
	if a.started {
		d := math.Abs(tmax-a.prevTmax) / float64(ran)
		decayed := 0.7 * a.drift
		if d > decayed {
			a.drift = d
		} else {
			a.drift = decayed
		}
	}
	a.prevTmax = tmax
	a.started = true
}

// updateTarget grows or resets the macro-step goal.
func (a *adaptiveEngine) updateTarget(p Phases, grow bool) {
	if grow {
		a.target *= 2
	}
	if a.carry {
		a.target = 1
	}
	if max := a.cfg.MaxTicks(p.BaseTick()); a.target > max {
		a.target = max
	}
	if a.target < 1 {
		a.target = 1
	}
}
