// Package coolsim is the public API of the repro library: it wires the
// thermal model, workload, scheduler, pump and flow-rate controller of
// conf_date_CoskunARBM10 into ready-to-run scenarios without exposing the
// internal substrate packages.
//
// The building blocks are:
//
//   - Scenario: one (stack, cooling, policy, workload) simulation, the
//     unit the paper's figures are built from. Run executes it as a
//     batch; RunMany fans a slice of scenarios over a worker pool.
//   - Session: incremental execution — NewSession + Step yield one
//     Sample per 100 ms tick (temperatures, pump state, power,
//     migrations), the streaming seam behind cmd/coolserved.
//   - Analysis: the offline steady-state sweeps (flow lookup table,
//     thermal weights) in plain-data form.
//
// Every entry point takes a context.Context and honors cancellation
// within one simulated tick. Configuration is a Scenario value plus
// functional options (WithWorkers, WithGrid, WithTick,
// WithStepper, WithObserver, WithPlatformCache, WithControlEvery,
// WithBatchCounters); failures surface as typed errors
// (ErrUnknownWorkload, ErrUnknownCooling, ...) that wrap into errors.Is. Scenario.Stepping/WithStepper select the time-advance
// engine: the default fixed 100 ms loop, or adaptive thermal
// macro-stepping (≤ 0.1 °C from fixed, several-fold faster through
// thermally quiet phases), with samples at the base tick either way.
//
// Runs of the same stack shape share their expensive setup — grid,
// solver analysis and factors, controller tables — within one call, and
// across calls through a PlatformCache; see WithPlatformCache. An
// oversubscribed RunMany additionally
// co-schedules platform-sharing fixed-flow runs so their per-tick
// thermal solves go through one multi-RHS solve of the shared factor
// (a two-lane sweep per pair of runs on the scalar kernels, one
// supernodal solve per run on the panel kernels) — reports stay
// byte-identical to solo runs at any worker count, and
// Report.BatchedSolves / WithBatchCounters expose what was ganged.
package coolsim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/platform"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stepper"
	"repro/internal/units"
	"repro/internal/workload"
)

// Cooling mode names accepted in Scenario.Cooling.
const (
	CoolingAir = "air"
	CoolingMax = "max"
	CoolingVar = "var"
)

// Scheduling policy names accepted in Scenario.Policy.
const (
	PolicyLB        = "lb"
	PolicyMigration = "mig"
	PolicyTALB      = "talb"
)

// Faults injects failure modes for robustness studies. The zero value is
// a healthy system. All fault randomness is seeded from Scenario.Seed, so
// faulty runs are as deterministic as healthy ones.
type Faults struct {
	// PumpStuck, when non-nil, pins the delivered flow to this pump
	// setting regardless of the controller's decisions.
	PumpStuck *int `json:"pump_stuck,omitempty"`
	// SensorNoiseStdDev adds zero-mean Gaussian noise (°C) to every
	// temperature the policies observe; metrics use ground truth.
	SensorNoiseStdDev float64 `json:"sensor_noise_stddev,omitempty"`
	// SensorDropoutProb is the per-tick probability that all sensors
	// return their previous reading.
	SensorDropoutProb float64 `json:"sensor_dropout_prob,omitempty"`
}

// validate checks the fault-injection ranges, wrapping ErrBadFaults.
func (f Faults) validate() error {
	if f.SensorNoiseStdDev < 0 {
		return fmt.Errorf("%w: sensor_noise_stddev %g (want >= 0)",
			ErrBadFaults, f.SensorNoiseStdDev)
	}
	if f.SensorDropoutProb < 0 || f.SensorDropoutProb > 1 {
		return fmt.Errorf("%w: sensor_dropout_prob %g (want 0..1)",
			ErrBadFaults, f.SensorDropoutProb)
	}
	if f.PumpStuck != nil {
		if err := pump.Validate(pump.Setting(*f.PumpStuck)); err != nil {
			return fmt.Errorf("%w: pump_stuck %d (want -1 for off, or 0..%d)",
				ErrBadFaults, *f.PumpStuck, pump.NumSettings-1)
		}
	}
	return nil
}

// Scenario describes one simulation in user-level terms. The zero value
// is not runnable; start from DefaultScenario. The struct marshals to
// JSON (it is the wire format of cmd/coolserved's POST /v1/runs).
type Scenario struct {
	// Layers: 2 or 4.
	Layers int `json:"layers,omitempty"`
	// Cooling: "air", "max" (worst-case flow), or "var" (the paper's
	// controller).
	Cooling string `json:"cooling,omitempty"`
	// Policy: "lb", "mig", or "talb".
	Policy string `json:"policy,omitempty"`
	// Workload is a Table II benchmark name (see Workloads).
	Workload string `json:"workload,omitempty"`
	// Duration and Warmup in seconds. Zero values keep the defaults
	// (60 s measured after a 5 s warm-up).
	Duration float64 `json:"duration,omitempty"`
	Warmup   float64 `json:"warmup,omitempty"`
	// Seed for the synthetic trace (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DPM enables the fixed-timeout sleep policy.
	DPM bool `json:"dpm,omitempty"`
	// GridNX, GridNY default to 23×20 when zero.
	GridNX int `json:"grid_nx,omitempty"`
	GridNY int `json:"grid_ny,omitempty"`
	// ControlEvery is the flow-controller decision cadence in base ticks
	// (the control period). The controller still observes temperatures
	// every tick; only its Decide step runs at the period. 0 keeps the
	// default of 1 — a decision every 100 ms tick, the paper's behavior.
	// Negative values fail validation with ErrBadControlEvery.
	ControlEvery int `json:"control_every,omitempty"`
	// Stepping selects and tunes the time-advance engine. The zero value
	// is the fixed base-tick loop.
	Stepping Stepping `json:"stepping,omitzero"`
	// Faults injects failure modes (robustness experiments).
	Faults Faults `json:"faults,omitzero"`
	// UtilSchedule, if non-nil, rescales workload intensity over time
	// (e.g. day/night shifts). It receives seconds since measurement
	// start (warm-up has t < 0) and returns a utilization scale. Not
	// serialized.
	UtilSchedule func(t float64) float64 `json:"-"`
}

// Stepping selects the simulator's time-advance engine. The zero value
// is the fixed 100 ms lock-step loop of the paper. Mode "adaptive"
// advances the thermal RC network in long macro-steps (up to MaxStepS)
// while power and flow are stable and a step-doubling error estimate
// stays under ToleranceC, refining back to the base tick around power
// transitions, pump-setting changes and temperature thresholds. Samples
// still arrive at every base tick regardless of the internal stepping;
// the Report's MacroSteps/Refinements counters show what the engine did.
type Stepping struct {
	// Mode: "" or "fixed" (default), or "adaptive".
	Mode string `json:"mode,omitempty"`
	// ToleranceC bounds the estimated per-macro-step temperature error
	// (°C). Default 0.05.
	ToleranceC float64 `json:"tolerance_c,omitempty"`
	// MaxStepS bounds the thermal macro-step (seconds). Default 1.6.
	MaxStepS float64 `json:"max_step_s,omitempty"`
}

// DefaultScenario is a 2-layer TALB(Var) run of Web-med.
func DefaultScenario() Scenario {
	return Scenario{
		Layers: 2, Cooling: CoolingVar, Policy: PolicyTALB, Workload: "Web-med",
		Duration: 60, Warmup: 5, Seed: 1,
	}
}

// Validate reports whether the scenario is runnable, returning the typed
// error of the first bad field (ErrUnknownWorkload, ErrBadLayers, ...).
func (sc Scenario) Validate() error {
	_, _, err := sc.simConfig(config{})
	return err
}

// PlatformKey returns the canonical identity of the scenario's platform
// model (stack geometry, grid, thermal configuration) as an opaque
// string. Scenarios with equal keys share the expensive platform setup
// (see WithPlatformCache); services use the key to route
// platform-affine work onto the same node.
func (sc Scenario) PlatformKey() (string, error) {
	_, spec, err := sc.simConfig(config{})
	if err != nil {
		return "", err
	}
	return spec.String(), nil
}

// ExpectedTicks returns how many per-tick Samples a full run of the
// scenario emits (warm-up plus measured duration at the base tick) — the
// expected-frame budget behind stream ETAs. 0 if the scenario is invalid.
func (sc Scenario) ExpectedTicks() int {
	cfg, _, err := sc.simConfig(config{})
	if err != nil || cfg.Tick <= 0 {
		return 0
	}
	return int(float64(cfg.Warmup+cfg.Duration)/float64(cfg.Tick) + 0.5)
}

// Report is the user-facing result of a scenario: flat, unit-suffixed
// fields ready for JSON.
type Report struct {
	Scenario Scenario `json:"scenario"`
	// Samples is the number of measured ticks; SimTimeS the measured
	// duration they span.
	Samples  int     `json:"samples"`
	SimTimeS float64 `json:"sim_time_s"`
	// MaxTempC / MeanTempC summarize the maximum die temperature trace.
	MaxTempC  float64 `json:"max_temp_c"`
	MeanTempC float64 `json:"mean_temp_c"`
	// HotSpotPct is the percentage of time above 85 °C, Above80Pct above
	// the 80 °C target.
	HotSpotPct float64 `json:"hot_spot_pct"`
	Above80Pct float64 `json:"above80_pct"`
	// GradientPct is the percentage of time with spatial gradients above
	// 15 °C; CyclePct the percentage of (core, sample) pairs cycling more
	// than 20 °C; MeanGradientC the average spatial gradient.
	GradientPct   float64 `json:"gradient_pct"`
	CyclePct      float64 `json:"cycle_pct"`
	CycleEvents   int     `json:"cycle_events"`
	MeanGradientC float64 `json:"mean_gradient_c"`
	// Energies in joules over the measurement window.
	ChipEnergyJ  float64 `json:"chip_energy_j"`
	PumpEnergyJ  float64 `json:"pump_energy_j"`
	TotalEnergyJ float64 `json:"total_energy_j"`
	// Throughput in completed threads per second; Completed the total
	// count; PendingAtEnd the backlog left in the queues.
	Throughput   float64 `json:"throughput_per_s"`
	Completed    int64   `json:"completed"`
	PendingAtEnd int     `json:"pending_at_end"`
	// MeanResponseS is the average thread sojourn time in seconds.
	MeanResponseS float64 `json:"mean_response_s"`
	// Controller statistics: time-averaged pump setting, time-averaged
	// per-cavity flow (ml/min), and ARMA predictor reconstructions.
	MeanSetting   float64 `json:"mean_setting"`
	MeanFlowMLMin float64 `json:"mean_flow_mlmin"`
	Refits        int     `json:"refits"`
	// Scheduler activity.
	Migrations   int64 `json:"migrations"`
	BalanceMoves int64 `json:"balance_moves"`
	// Stepping-engine work: base ticks emitted, accepted thermal
	// macro-steps and the ticks they covered, error-estimate rejections
	// re-solved at the base tick, and total thermal solves. A fixed-tick
	// run has MacroSteps = Refinements = 0 and ThermalSolves = BaseTicks.
	BaseTicks     int `json:"base_ticks"`
	MacroSteps    int `json:"macro_steps"`
	MacroTicks    int `json:"macro_ticks"`
	Refinements   int `json:"refinements"`
	ThermalSolves int `json:"thermal_solves"`
	// BatchedSolves is the number of this scenario's thermal solves that
	// were served through grouped multi-RHS solves — nonzero only when
	// RunMany co-schedules platform-sharing scenarios over fewer worker
	// slots (see WithPlatformCache, WithWorkers, WithBatchCounters).
	// Batching never changes the simulated trajectory.
	BatchedSolves int64 `json:"batched_solves"`
	// SupernodalSolver reports whether the direct solver ran the
	// supernodal dense-panel kernels; Supernodes and MeanPanelWidth
	// describe the partition (0 before the first solve).
	// The kernel family never changes the trajectory beyond ≤1e-6 K.
	SupernodalSolver bool    `json:"supernodal_solver"`
	Supernodes       int     `json:"supernodes"`
	MeanPanelWidth   float64 `json:"mean_panel_width"`
}

// Run executes a scenario to completion. Cancel ctx to abort: Run then
// returns ctx.Err() within one simulated tick. WithObserver registers a
// per-tick hook that receives every Sample of the run (including warm-up
// ticks, which have negative Sample.Time).
func Run(ctx context.Context, sc Scenario, opts ...Option) (*Report, error) {
	s, err := NewSession(ctx, sc, opts...)
	if err != nil {
		return nil, err
	}
	return s.drain()
}

// RunMany executes several scenarios on a worker pool (WithWorkers;
// default runtime.NumCPU()) and returns the reports in input order. Every
// scenario owns its simulator state and RNG seeding, so the reports are
// identical to running the scenarios serially, for any worker count.
//
// Cancellation is prompt: once ctx is done no queued scenario starts,
// in-flight scenarios abort at the next tick, and RunMany returns
// ctx.Err(). WithObserver is not supported here (samples of concurrent
// runs would interleave); use Run or Session per scenario instead.
func RunMany(ctx context.Context, scs []Scenario, opts ...Option) ([]*Report, error) {
	cfg := buildConfig(opts)
	cfgs := make([]sim.Config, len(scs))
	specs := make([]platform.Spec, len(scs))
	for i, sc := range scs {
		var err error
		if cfgs[i], specs[i], err = sc.simConfig(cfg); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	if err := cfg.pcache.attachAll(ctx, cfgs, specs); err != nil {
		return nil, err
	}
	if fn := cfg.memberObserver; fn != nil {
		for i := range cfgs {
			member := i
			sp := &sampler{}
			cfgs[i].Observer = func(s *sim.Sim, measured bool) {
				fn(member, sp.fill(s, measured))
			}
		}
	}
	results, err := sim.RunAll(ctx, cfgs, cfg.workers)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(scs))
	for i, r := range results {
		reports[i] = newReport(scs[i], r)
	}
	return reports, nil
}

// RunTraced executes a scenario while streaming a per-tick CSV trace of
// temperatures and pump state to dst (measured ticks only).
func RunTraced(ctx context.Context, sc Scenario, dst io.Writer, opts ...Option) (*Report, error) {
	s, err := NewSession(ctx, sc, opts...)
	if err != nil {
		return nil, err
	}
	tr := sim.NewTraceRecorder(s.sim, dst)
	for {
		smp, err := s.Step()
		if err != nil {
			if errors.Is(err, ErrSessionDone) {
				break
			}
			return nil, err
		}
		if s.cfg.observer != nil {
			s.cfg.observer(smp)
		}
		// The CSV trace keeps its historical shape: measured ticks only.
		if smp.Measured {
			if err := tr.Record(); err != nil {
				return nil, err
			}
		}
	}
	if err := tr.Flush(); err != nil {
		return nil, err
	}
	return s.Report(), nil
}

func newReport(sc Scenario, r *sim.Result) *Report {
	return &Report{
		Scenario:      sc,
		Samples:       r.Samples,
		SimTimeS:      float64(r.SimTime),
		MaxTempC:      r.MaxTemp,
		MeanTempC:     r.MeanTemp,
		HotSpotPct:    r.HotSpotPct,
		Above80Pct:    r.Above80Pct,
		GradientPct:   r.GradientPct,
		CyclePct:      r.CyclePct,
		CycleEvents:   r.CycleEvents,
		MeanGradientC: r.MeanGradient,
		ChipEnergyJ:   float64(r.ChipEnergy),
		PumpEnergyJ:   float64(r.PumpEnergy),
		TotalEnergyJ:  float64(r.TotalEnergy),
		Throughput:    r.Throughput,
		Completed:     r.Completed,
		PendingAtEnd:  r.PendingAtEnd,
		MeanResponseS: float64(r.MeanResponse),
		MeanSetting:   r.MeanSetting,
		MeanFlowMLMin: units.LitersPerMinute(r.MeanFlowLPM).MilliLitersPerMinute(),
		Refits:        r.Refits,
		Migrations:    r.Migrations,
		BalanceMoves:  r.BalanceMoves,
		BaseTicks:     r.Stepping.BaseTicks,
		MacroSteps:    r.Stepping.MacroSteps,
		MacroTicks:    r.Stepping.MacroTicks,
		Refinements:   r.Stepping.Refinements,
		ThermalSolves: r.Stepping.Solves,
		BatchedSolves: r.BatchedSolves,

		SupernodalSolver: r.SupernodalSolver,
		Supernodes:       r.Supernodes,
		MeanPanelWidth:   r.MeanPanelWidth,
	}
}

// WriteSummary renders a human-readable report.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "scenario: %d-layer %s / %s / %s (%.0fs)\n",
		r.Scenario.Layers, r.Scenario.Cooling, r.Scenario.Policy,
		r.Scenario.Workload, r.SimTimeS)
	fmt.Fprintf(w, "  Tmax observed:    %.2f °C (mean %.2f °C)\n", r.MaxTempC, r.MeanTempC)
	fmt.Fprintf(w, "  hot spots >85°C:  %.2f %% of time (above 80 °C: %.2f %%)\n",
		r.HotSpotPct, r.Above80Pct)
	fmt.Fprintf(w, "  gradients >15°C:  %.2f %%   cycles >20°C: %.2f %%\n",
		r.GradientPct, r.CyclePct)
	fmt.Fprintf(w, "  energy:           chip %.1f J, pump %.1f J, total %.1f J\n",
		r.ChipEnergyJ, r.PumpEnergyJ, r.TotalEnergyJ)
	fmt.Fprintf(w, "  throughput:       %.1f threads/s (%d completed, %d pending)\n",
		r.Throughput, r.Completed, r.PendingAtEnd)
	if r.Scenario.Cooling == CoolingVar {
		fmt.Fprintf(w, "  controller:       mean setting %.2f, mean flow %.0f ml/min, %d refits\n",
			r.MeanSetting, r.MeanFlowMLMin, r.Refits)
	}
	if r.Migrations > 0 {
		fmt.Fprintf(w, "  migrations:       %d\n", r.Migrations)
	}
	if r.MacroSteps > 0 || r.Refinements > 0 {
		fmt.Fprintf(w, "  stepping:         %d macro-steps covering %d/%d ticks, %d refinements, %d thermal solves\n",
			r.MacroSteps, r.MacroTicks, r.BaseTicks, r.Refinements, r.ThermalSolves)
	}
}

// Workloads returns the Table II benchmark names.
func Workloads() []string {
	out := make([]string, len(workload.TableII))
	for i, b := range workload.TableII {
		out[i] = b.Name
	}
	return out
}

func parseCooling(s string) (sim.CoolingMode, error) {
	switch s {
	case CoolingAir:
		return sim.Air, nil
	case CoolingMax:
		return sim.LiquidMax, nil
	case CoolingVar:
		return sim.LiquidVar, nil
	default:
		return 0, fmt.Errorf("%w: %q (want air|max|var)", ErrUnknownCooling, s)
	}
}

func parsePolicy(s string) (sched.Policy, error) {
	switch s {
	case PolicyLB:
		return sched.LB, nil
	case PolicyMigration, "migration":
		return sched.Migration, nil
	case PolicyTALB:
		return sched.TALB, nil
	default:
		return 0, fmt.Errorf("%w: %q (want lb|mig|talb)", ErrUnknownPolicy, s)
	}
}

// simConfig lowers the user-level scenario plus run options into the
// internal simulator configuration (its Platform left unset) and the
// spec of the platform it runs on.
func (sc Scenario) simConfig(rc config) (sim.Config, platform.Spec, error) {
	if sc.Layers != 2 && sc.Layers != 4 {
		return sim.Config{}, platform.Spec{}, fmt.Errorf("%w: %d (want 2 or 4)", ErrBadLayers, sc.Layers)
	}
	cooling, err := parseCooling(sc.Cooling)
	if err != nil {
		return sim.Config{}, platform.Spec{}, err
	}
	policy, err := parsePolicy(sc.Policy)
	if err != nil {
		return sim.Config{}, platform.Spec{}, err
	}
	bench, err := workload.ByName(sc.Workload)
	if err != nil {
		return sim.Config{}, platform.Spec{}, fmt.Errorf("%w: %q", ErrUnknownWorkload, sc.Workload)
	}
	spec := platform.Spec{
		Layers: sc.Layers, Liquid: cooling != sim.Air,
		GridNX: 23, GridNY: 20,
		RC: rcnet.DefaultConfig(),
	}
	if sc.GridNX > 0 && sc.GridNY > 0 {
		spec.GridNX, spec.GridNY = sc.GridNX, sc.GridNY
	}
	if rc.gridNX > 0 && rc.gridNY > 0 {
		spec.GridNX, spec.GridNY = rc.gridNX, rc.gridNY
	}
	cfg := sim.DefaultConfig()
	cfg.Cooling = cooling
	cfg.Policy = policy
	cfg.Bench = bench
	if sc.Seed != 0 {
		cfg.Seed = sc.Seed
	}
	if sc.Duration > 0 {
		cfg.Duration = units.Second(sc.Duration)
	}
	if sc.Warmup > 0 {
		cfg.Warmup = units.Second(sc.Warmup)
	}
	cfg.DPMEnabled = sc.DPM
	stepping := sc.Stepping
	if rc.stepping != nil {
		stepping = *rc.stepping
	}
	kind, err := stepper.ParseKind(stepping.Mode)
	if err != nil {
		return sim.Config{}, platform.Spec{}, fmt.Errorf("%w: %q (want fixed|adaptive)", ErrUnknownStepping, stepping.Mode)
	}
	controlEvery := sc.ControlEvery
	if rc.controlEvery != 0 {
		controlEvery = rc.controlEvery
	}
	if controlEvery < 0 {
		return sim.Config{}, platform.Spec{}, fmt.Errorf("%w: %d (want > 0)", ErrBadControlEvery, controlEvery)
	}
	cfg.Stepper = stepper.Config{
		Kind:         kind,
		ToleranceC:   stepping.ToleranceC,
		MaxStep:      units.Second(stepping.MaxStepS),
		ControlEvery: controlEvery,
	}
	if rc.batch != nil {
		cfg.BatchCounters = &rc.batch.inner
	}
	if err := sc.Faults.validate(); err != nil {
		return sim.Config{}, platform.Spec{}, err
	}
	if sc.Faults.PumpStuck != nil {
		ps := pump.Setting(*sc.Faults.PumpStuck)
		cfg.Faults.PumpStuck = &ps
	}
	cfg.Faults.SensorNoiseStdDev = sc.Faults.SensorNoiseStdDev
	cfg.Faults.SensorDropoutProb = sc.Faults.SensorDropoutProb
	if sc.UtilSchedule != nil {
		us := sc.UtilSchedule
		cfg.UtilSchedule = func(t units.Second) float64 { return us(float64(t)) }
	}
	if rc.tick > 0 {
		cfg.Tick = units.Second(rc.tick)
	}
	return cfg, spec, nil
}
