// Package stepper implements the simulator's time-advance engines. The
// tick loop is split into explicit phases — workload/scheduler/DPM at the
// base tick, flow-controller decisions at the control period, the thermal
// solve at a (possibly longer) macro-step — and an Engine decides when
// each phase runs:
//
//   - Fixed advances every phase in lock-step at the base tick, exactly
//     reproducing the paper's Section V loop (and the pre-stepper
//     monolithic Step, byte for byte). It is the default.
//   - Adaptive exploits the thermal solver's cached per-dt
//     factorizations to advance the RC network in long macro-steps while
//     power and flow are stable and a step-doubling error estimate stays
//     under tolerance, refining back to the base tick on power
//     transitions, pump-setting changes and threshold proximity.
//
// Engines drive the simulator through the Phases contract and never touch
// simulator state directly; the simulator owns all buffers, so a stepped
// run stays allocation-free regardless of the engine.
package stepper

import (
	"fmt"

	"repro/internal/units"
)

// Kind selects the time-advance engine.
type Kind int

const (
	// Fixed is the lock-step base-tick loop (the default).
	Fixed Kind = iota
	// Adaptive takes long thermal macro-steps through thermally quiet
	// stretches and refines to the base tick around transitions.
	Adaptive
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fixed:
		return "fixed"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a CLI/wire string to a Kind. The empty string selects
// Fixed.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "fixed":
		return Fixed, nil
	case "adaptive":
		return Adaptive, nil
	default:
		return 0, fmt.Errorf("stepper: unknown stepping mode %q (want fixed|adaptive)", s)
	}
}

// Config tunes the engine. The zero value is the fixed-tick loop.
type Config struct {
	// Kind selects the engine.
	Kind Kind
	// ToleranceC is the adaptive engine's bound on the estimated
	// temperature error of one macro-step (°C, from the step-doubling
	// estimator). A macro-step whose estimate exceeds it is rolled back
	// and re-solved at the base tick. Default 0.05.
	ToleranceC float64
	// MaxStep bounds the thermal macro-step length (seconds); it is
	// rounded down to a whole number of base ticks. Default 1.6 s (16
	// base ticks at the paper's 100 ms tick).
	MaxStep units.Second
	// ControlEvery is the flow-controller decision cadence in base ticks
	// (the control period). The controller still observes every tick (the
	// ARMA predictor needs the 100 ms series); only Decide runs at the
	// period. Default 1: a decision every tick, the paper's behavior.
	ControlEvery int
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.ToleranceC <= 0 {
		c.ToleranceC = 0.05
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 1.6
	}
	if c.ControlEvery <= 0 {
		c.ControlEvery = 1
	}
	return c
}

// MaxTicks returns the macro-step bound in whole base ticks (≥ 1).
func (c Config) MaxTicks(baseTick units.Second) int {
	c = c.withDefaults()
	if baseTick <= 0 {
		return 1
	}
	n := int(float64(c.MaxStep)/float64(baseTick) + 1e-9)
	if n < 1 {
		n = 1
	}
	if n > 256 {
		n = 256
	}
	return n
}

// Counters reports the work an engine has performed (diagnostics; the
// service metrics endpoint aggregates them across jobs).
type Counters struct {
	// BaseTicks is the number of base ticks advanced.
	BaseTicks int `json:"base_ticks"`
	// MacroSteps is the number of accepted multi-tick thermal macro-steps.
	MacroSteps int `json:"macro_steps"`
	// MacroTicks is the number of base ticks covered by those macro-steps.
	MacroTicks int `json:"macro_ticks"`
	// Refinements counts macro-steps rejected by the error estimate and
	// re-solved at base-tick resolution.
	Refinements int `json:"refinements"`
	// Solves counts thermal linear solves (a macro-step with its
	// step-doubling estimate costs 3; a base tick costs 1).
	Solves int `json:"solves"`
}

// Events is what one base tick reported back to the engine: the signals
// that end a thermal macro-step.
type Events struct {
	// FlowChanged: the delivered pump flow changed on this tick, so the
	// thermal system matrix is about to change.
	FlowChanged bool
	// ChipPowerW is the tick's staged chip power (macro-step stability).
	ChipPowerW float64
	// PowerDeltaW is the largest absolute per-block power change vs the
	// previous tick (thread-placement ripple).
	PowerDeltaW float64
	// HeldTmaxC is the maximum die temperature the tick's policies
	// observed (the state at the last thermal solve).
	HeldTmaxC float64
}

// Phases is the contract between an engine and the simulator: the tick
// loop's stages, individually schedulable. The simulator owns every
// buffer; engines only sequence the calls.
//
// A "pending" tick has run its base-tick stages (workload, scheduling,
// DPM, power staging, flow control) but not yet been finalized with
// temperatures. Pending ticks are indexed from 0 in run order.
type Phases interface {
	// BaseTick returns the base sampling interval.
	BaseTick() units.Second
	// RemainingTicks returns how many base ticks are left before the
	// run's configured end (relative to the ticks already run).
	RemainingTicks() int
	// PendingTicks returns the number of ticks run but not yet completed.
	PendingTicks() int
	// HeldTmaxC returns the maximum die temperature at the last completed
	// thermal solve — what the base-tick policies currently observe.
	HeldTmaxC() float64
	// ThresholdMarginC returns the distance (°C) from the held maximum
	// die temperature to the nearest policy or metric threshold.
	ThresholdMarginC() float64
	// RunTick advances the base-tick stages by one tick, appending a
	// pending tick. decide gates the flow-controller's Decide call (the
	// control period); observation always happens.
	RunTick(decide bool) (Events, error)
	// PushFlow installs the delivered pump flow into the thermal model.
	// It must be called only when every pending tick of the previous flow
	// has been solved: the system matrix changes with the flow.
	PushFlow() error
	// InstallTickPower installs pending tick i's staged block powers into
	// the thermal model.
	InstallTickPower(i int) error
	// InstallMeanPower installs the mean of the first n pending ticks'
	// staged powers (aggregated-power macro-stepping).
	InstallMeanPower(n int) error
	// SaveThermal snapshots the thermal model's transient state so a
	// rejected macro-step can be rolled back.
	SaveThermal()
	// RestoreThermal rolls the thermal model back to the last snapshot.
	RestoreThermal()
	// SolveThermal advances the thermal model by dt using the installed
	// power and flow.
	SolveThermal(dt units.Second) error
	// SolveThermalEstimate advances by dt while estimating the local
	// error by step doubling; it returns the estimate (°C) and leaves the
	// two-half-step solution in the model.
	SolveThermalEstimate(dt units.Second) (float64, error)
	// FinalizeExact derives pending tick i's temperatures from the
	// model's current (just solved) state.
	FinalizeExact(i int) error
	// FinalizeInterpolated derives the first n pending ticks'
	// temperatures by interpolating between the state at the last
	// completed macro-step and the model's current state.
	FinalizeInterpolated(n int) error
	// CompleteMacro marks the first n pending (finalized) ticks ready for
	// emission and publishes the model's current state as the held
	// observation for the ticks that follow.
	CompleteMacro(n int) error
}

// Engine advances the simulation. Advance must run at least one base tick
// and complete at least one pending tick for emission.
type Engine interface {
	Advance(p Phases) error
	// Counters returns the engine's cumulative work counters.
	Counters() Counters
}

// SplitEngine is an Engine whose Advance can be cut around the thermal
// solve: AdvancePrepare runs every pre-solve phase of exactly one base
// tick (workload, scheduling, flow push, power install), the caller then
// performs the SolveThermal(BaseTick()) step itself — possibly batched
// with other simulations sharing the factorized system — and
// AdvanceFinish finalizes and completes the tick. The sequence
// AdvancePrepare + SolveThermal + AdvanceFinish is phase-for-phase
// identical to Advance. The fixed engine implements it (one tick per
// Advance by construction); the adaptive engine does not (its solve
// cadence is data-dependent).
type SplitEngine interface {
	Engine
	AdvancePrepare(p Phases) error
	AdvanceFinish(p Phases) error
}

// New returns the engine for cfg.
func New(cfg Config) Engine {
	cfg = cfg.withDefaults()
	switch cfg.Kind {
	case Adaptive:
		return newAdaptive(cfg)
	default:
		return &fixedEngine{cfg: cfg}
	}
}

// fixedEngine is the lock-step loop: every phase at the base tick, in the
// exact order of the pre-stepper monolithic Step.
type fixedEngine struct {
	cfg   Config
	ticks int
	ctr   Counters
}

// Advance runs one complete base tick.
func (f *fixedEngine) Advance(p Phases) error {
	if err := f.AdvancePrepare(p); err != nil {
		return err
	}
	if err := p.SolveThermal(p.BaseTick()); err != nil {
		return err
	}
	return f.AdvanceFinish(p)
}

// AdvancePrepare implements SplitEngine: the pre-solve phases of one base
// tick, in Advance's exact order.
func (f *fixedEngine) AdvancePrepare(p Phases) error {
	decide := f.ticks%f.cfg.ControlEvery == 0
	f.ticks++
	if _, err := p.RunTick(decide); err != nil {
		return err
	}
	if err := p.PushFlow(); err != nil {
		return err
	}
	return p.InstallTickPower(0)
}

// AdvanceFinish implements SplitEngine: finalize and complete the solved
// tick.
func (f *fixedEngine) AdvanceFinish(p Phases) error {
	if err := p.FinalizeExact(0); err != nil {
		return err
	}
	f.ctr.BaseTicks++
	f.ctr.Solves++
	return p.CompleteMacro(1)
}

// Counters implements Engine.
func (f *fixedEngine) Counters() Counters { return f.ctr }
