// Package sim is the integrating simulator: it couples the workload
// generator, the multi-queue scheduler, DPM, the power model, the thermal
// RC network and the flow-rate controller into the 100 ms tick loop of
// Section V, and collects the evaluation metrics.
//
// One Run corresponds to one bar of the paper's figures: a (system,
// cooling mode, policy, workload) combination simulated for a fixed
// duration after a warm-up.
package sim

import (
	"context"
	"fmt"

	"repro/internal/controller"
	"repro/internal/dpm"
	"repro/internal/floorplan"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/stepper"
	"repro/internal/units"
	"repro/internal/workload"
)

// CoolingMode selects the cooling configuration of a run.
type CoolingMode int

// Cooling modes compared in the paper's figures.
const (
	// Air is the conventional air-cooled package ("(Air)").
	Air CoolingMode = iota
	// LiquidMax runs the pump at the worst-case maximum setting
	// ("(Max)").
	LiquidMax
	// LiquidVar uses the proactive flow-rate controller ("(Var)").
	LiquidVar
)

// String implements fmt.Stringer.
func (m CoolingMode) String() string {
	switch m {
	case Air:
		return "Air"
	case LiquidMax:
		return "Max"
	case LiquidVar:
		return "Var"
	default:
		return fmt.Sprintf("CoolingMode(%d)", int(m))
	}
}

// Config describes one simulation run.
type Config struct {
	// Layers selects the 2- or 4-layer T1 stack.
	Layers int
	// Cooling mode and scheduling policy.
	Cooling CoolingMode
	Policy  sched.Policy
	// Bench is the Table II workload.
	Bench workload.Benchmark
	// Seed drives the workload generator.
	Seed int64
	// Duration is the measured simulation time; Warmup precedes it and
	// is excluded from metrics.
	Duration units.Second
	Warmup   units.Second
	// Tick is the sampling interval (paper: 100 ms).
	Tick units.Second
	// GridNX, GridNY set the thermal grid resolution.
	GridNX, GridNY int
	// DPMEnabled turns the fixed-timeout sleep policy on (Fig. 7 runs
	// with DPM).
	DPMEnabled bool
	// RC overrides the thermal boundary configuration; zero value means
	// rcnet.DefaultConfig().
	RC *rcnet.Config
	// ControllerCfg overrides the flow controller configuration (used by
	// the ablation benches); nil means controller.DefaultConfig().
	ControllerCfg *controller.Config
	// UtilSchedule, if non-nil, rescales workload intensity over time
	// (e.g. day/night shifts). It receives the time since measurement
	// start (warm-up has t < 0) and returns a utilization scale.
	UtilSchedule func(t units.Second) float64
	// LUT and Weights allow reuse of precomputed tables across runs of
	// the same system (they depend only on stack + cooling, not on
	// policy or workload). Nil means take them from the Platform (which
	// builds each at most once and shares it).
	LUT     *controller.LUT
	Weights *controller.WeightTable
	// Platform, when non-nil, supplies the shared per-stack artifacts
	// (floorplan, grid, pump, solver symbolic analysis, LUT, weight
	// table). Its spec must match this config (PlatformSpec); New
	// validates that. Nil builds a private platform — the cold path.
	Platform *platform.Platform
	// Faults injects failure modes (robustness experiments).
	Faults Faults
	// FlowPolicy overrides the flow controller for LiquidVar runs
	// (e.g. controller.IncDec, the prior-work reactive baseline). Nil
	// selects the paper's LUT controller.
	FlowPolicy FlowPolicy
	// Stepper selects and tunes the time-advance engine. The zero value
	// is the fixed base-tick loop, bit-identical to the pre-stepper
	// simulator; stepper.Adaptive takes long thermal macro-steps through
	// thermally quiet stretches (see internal/stepper).
	Stepper stepper.Config
	// BatchCounters, when non-nil, accumulates multi-RHS batch-solve
	// statistics whenever this run is co-scheduled with platform-sharing
	// runs by RunAll (see rcnet.BatchCounters). Safe to share across
	// configs and concurrent calls.
	BatchCounters *rcnet.BatchCounters
	// Observer, when non-nil, is called after every emitted base tick of
	// Run/RunAll (warm-up included, measured=false there) with the
	// simulation positioned at that tick. It runs on the simulation
	// goroutine: read the accessors, copy what you need, return quickly.
	Observer func(s *Sim, measured bool)
}

// FlowPolicy is the decision interface of a variable-flow controller.
// controller.Controller (the paper's) and controller.IncDec (the
// prior-work baseline) both implement it.
type FlowPolicy interface {
	Observe(units.Celsius)
	Decide() pump.Setting
}

// DefaultConfig returns a 2-layer liquid-variable TALB run of Web-med.
func DefaultConfig() Config {
	b, _ := workload.ByName("Web-med")
	return Config{
		Layers:     2,
		Cooling:    LiquidVar,
		Policy:     sched.TALB,
		Bench:      b,
		Seed:       1,
		Duration:   60,
		Warmup:     5,
		Tick:       0.1,
		GridNX:     23,
		GridNY:     20,
		DPMEnabled: false,
	}
}

// Result bundles the metrics of one run.
type Result struct {
	stats.Report
	// Stepping reports the time-advance engine's work counters: base
	// ticks, accepted thermal macro-steps, refinements, solves. Excluded
	// from the JSON golden surface — the fixed engine's output is pinned
	// byte-identical to the pre-stepper loop.
	Stepping stepper.Counters `json:"-"`
	// Migrations and BalanceMoves from the scheduler.
	Migrations   int64
	BalanceMoves int64
	// Refits is the number of ARMA reconstructions.
	Refits int
	// PendingAtEnd is the backlog left in the queues.
	PendingAtEnd int
	// MeanFlowLPM is the time-averaged per-cavity flow (ml/min
	// conversions are up to the caller).
	MeanFlowLPM float64
	// MeanResponse is the average thread sojourn time (s) — where
	// migration overhead shows even when throughput is slack-absorbed.
	MeanResponse units.Second
	// BatchedSolves is the number of this run's thermal solves that were
	// served through a shared multi-RHS sweep (RunAll gang scheduling);
	// 0 for a solo Run. Excluded from the JSON golden surface — batching
	// never changes the simulated trajectory, only how it was computed.
	BatchedSolves int64 `json:"-"`
	// SupernodalSolver reports whether the direct solver ran the
	// supernodal dense-panel kernels (vs the scalar column kernels);
	// Supernodes and MeanPanelWidth describe the partition when it did.
	// Excluded from the JSON golden surface — the kernel family changes
	// how temperatures were computed, not the trajectory (≤1e-6 K).
	SupernodalSolver bool    `json:"-"`
	Supernodes       int     `json:"-"`
	MeanPanelWidth   float64 `json:"-"`
}

// Sim is a stepped simulation; Run drives it to completion, and the
// examples use Step directly for custom scenarios.
type Sim struct {
	Cfg   Config
	Stack *floorplan.Stack
	Model *rcnet.Model
	Pump  *pump.Pump
	Sched *sched.Scheduler
	Power *power.Model
	Gen   *workload.Generator // the thread arrival source, seeded with Cfg.Seed
	DPM   *dpm.Policy
	Ctrl  *controller.Controller // the paper's controller (nil when overridden)
	Flow  FlowPolicy             // active flow policy for LiquidVar
	WTab  *controller.WeightTable
	Stats *stats.Collector

	// cores caches Stack.Cores() (which allocates per call) for the
	// per-tick temperature read.
	cores []floorplan.CoreRef

	// engine sequences the tick phases (internal/stepper); the adaptive
	// engine may run the base-tick stages ahead of emission, so the
	// simulator keeps two clocks. Both are tick-counted so a 100 ms step
	// never accumulates floating-point drift: time = tick0 + steps·Tick.
	engine stepper.Engine
	tick0  units.Second // −Warmup
	steps  int          // emitted ticks
	time   units.Second // emitted clock (tick0 + steps·Tick)
	fSteps int          // forward (run-ahead) ticks
	fTime  units.Second // forward clock
	// totalTicks is the tick count of the configured run (warm-up plus
	// duration), bounding the engine's run-ahead.
	totalTicks int

	applied   pump.Setting // commanded (post-transition) setting
	delivered pump.Setting // flow actually reaching the cavities
	pending   pump.Setting
	pendingAt units.Second
	inFlight  bool
	faults    *faultState

	// held is what the base-tick policies observe: the model state at the
	// last completed thermal solve (equal to the emitted state under the
	// fixed engine, ahead of it while the adaptive engine runs forward).
	held       derived
	endScratch derived // macro-step end state for interpolation
	thermSnap  rcnet.TransientState
	thresholds []float64 // policy/metric temperature edges (°C)

	// Tick records between running and emission: recs[0:completedN) are
	// finalized (emitNext of them already emitted), recs[completedN:pendN)
	// are run but not yet solved. Capacity bounds the macro-step length.
	recs       []tickRec
	pendN      int
	completedN int
	emitNext   int

	// Emitted view: the per-tick state every accessor and the trace
	// recorder read, refreshed once per Step from the emitted record.
	coreTemps     []units.Celsius
	blockTemps    [][]units.Celsius // per-block mean (leakage evaluation)
	unitTemps     []units.Celsius   // per-block hottest cell (gradient metric)
	lastTmax      units.Celsius
	lastChip      units.Watt // chip power drawn during the latest tick
	outSetting    int
	outPumpW      units.Watt
	outFlow       units.LitersPerMinute
	outMigrations int64
	outBalance    int64
	outPending    int
	outResponse   units.Second
	outRefits     int
	flowTime      float64 // ∫ flow dt for MeanFlowLPM
	batchedSolves int64   // solves served through gang SolveBatch sweeps

	// Reused per-tick buffers: the stats-collection tick path is
	// allocation-free in steady state (TestStepAllocationFree guards it).
	busyBuf   []float64
	idleBuf   []units.Second
	statesBuf []power.CoreState
	blocksBuf [][]float64
	prevPower [][]float64 // previous tick's block powers (stability signal)
}

// PlatformSpec lowers the run configuration to the canonical key of the
// platform it executes on: the (layers, cooling class, grid resolution,
// thermal config) tuple every shared artifact depends on.
func (cfg Config) PlatformSpec() (platform.Spec, error) {
	rcCfg := rcnet.DefaultConfig()
	if cfg.RC != nil {
		rcCfg = *cfg.RC
	}
	spec := platform.Spec{
		Layers: cfg.Layers,
		Liquid: cfg.Cooling != Air,
		GridNX: cfg.GridNX,
		GridNY: cfg.GridNY,
		RC:     rcCfg,
	}
	return spec, spec.Validate()
}

// New assembles a simulation. Construction can be expensive for
// LiquidVar/TALB runs on a cold platform (the controller LUT and weight
// tables come from steady-state sweeps), so ctx is honored there too:
// cancellation aborts the build within one steady-state solve. With
// Cfg.Platform set, everything per-stack is reused and construction cost
// drops to the per-run mutable state.
func New(ctx context.Context, cfg Config) (*Sim, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("sim: non-positive tick")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration")
	}
	spec, err := cfg.PlatformSpec()
	if err != nil {
		return nil, err
	}
	liquid := cfg.Cooling != Air
	p := cfg.Platform
	if p == nil {
		p, err = platform.New(spec)
		if err != nil {
			return nil, err
		}
	} else if p.Spec() != spec {
		return nil, fmt.Errorf("sim: shared platform is %v but the run config needs %v",
			p.Spec(), spec)
	}
	stack := p.Stack()
	model, err := p.NewModel(ctx)
	if err != nil {
		return nil, err
	}
	s := &Sim{Cfg: cfg, Stack: stack, Model: model, cores: stack.Cores()}

	s.Sched, err = sched.New(cfg.Policy, len(s.cores))
	if err != nil {
		return nil, err
	}
	s.Power = power.New(stack)
	s.Gen = workload.NewGenerator(cfg.Bench, len(s.cores), cfg.Seed)
	if cfg.DPMEnabled {
		s.DPM = dpm.New()
	} else {
		s.DPM = dpm.Disabled()
	}
	s.Stats, err = stats.NewCollector(len(s.cores))
	if err != nil {
		return nil, err
	}

	if liquid {
		s.Pump = p.Pump()
	}

	// Controller LUT and TALB weights are platform artifacts: built at
	// most once per platform (on scratch models, so this run's model
	// state is untouched) and shared by every concurrent consumer.
	if cfg.Cooling == LiquidVar {
		if cfg.FlowPolicy != nil {
			s.Flow = cfg.FlowPolicy
		} else {
			lut := cfg.LUT
			if lut == nil {
				lut, err = p.LUT(ctx)
				if err != nil {
					return nil, err
				}
			}
			ctrlCfg := controller.DefaultConfig()
			if cfg.ControllerCfg != nil {
				ctrlCfg = *cfg.ControllerCfg
			}
			// Start at the max setting; the controller steps down as it
			// learns the workload (safe-side initialization).
			s.Ctrl, err = controller.New(lut, ctrlCfg, pump.MaxSetting())
			if err != nil {
				return nil, err
			}
			s.Flow = s.Ctrl
		}
	}
	if cfg.Policy == sched.TALB {
		wt := cfg.Weights
		if wt == nil {
			wt, err = p.Weights(ctx)
			if err != nil {
				return nil, err
			}
		}
		s.WTab = wt
	}

	s.faults = newFaultState(cfg.Faults, cfg.Seed, len(s.cores))
	if cfg.Faults.PumpStuck != nil {
		if err := pump.Validate(*cfg.Faults.PumpStuck); err != nil {
			return nil, err
		}
	}

	// Initial cooling state.
	switch cfg.Cooling {
	case LiquidMax, LiquidVar:
		s.applied = pump.MaxSetting()
		s.delivered = s.faults.effectiveSetting(s.applied)
		if err := model.SetFlow(s.Pump.PerCavityFlow(s.delivered)); err != nil {
			return nil, err
		}
		s.outSetting = int(s.delivered)
		s.outPumpW = pump.Power(s.delivered)
		s.outFlow = s.Pump.PerCavityFlow(s.delivered)
	case Air:
		s.applied = pump.Off
		s.delivered = pump.Off
		s.outSetting = -1
	}

	ncores := len(s.cores)
	s.coreTemps = make([]units.Celsius, ncores)
	s.blockTemps = make([][]units.Celsius, len(stack.Layers))
	s.blocksBuf = make([][]float64, len(stack.Layers))
	nblocks := 0
	s.prevPower = make([][]float64, len(stack.Layers))
	for li, layer := range stack.Layers {
		s.blockTemps[li] = make([]units.Celsius, len(layer.Blocks))
		s.blocksBuf[li] = make([]float64, len(layer.Blocks))
		s.prevPower[li] = make([]float64, len(layer.Blocks))
		nblocks += len(layer.Blocks)
	}
	s.unitTemps = make([]units.Celsius, nblocks)
	s.busyBuf = make([]float64, ncores)
	s.idleBuf = make([]units.Second, ncores)
	s.statesBuf = make([]power.CoreState, ncores)
	s.tick0 = -cfg.Warmup
	s.time = s.tick0
	s.fTime = s.tick0

	// Time-advance engine and its tick-record buffers (+1 slot: a tick
	// that sees a flow or power transition carries into the next macro
	// interval).
	s.engine = stepper.New(cfg.Stepper)
	maxTicks := 1
	if cfg.Stepper.Kind == stepper.Adaptive {
		maxTicks = cfg.Stepper.MaxTicks(cfg.Tick)
	}
	s.recs = make([]tickRec, maxTicks+1)
	// One flat backing array for every record's per-layer block powers:
	// an adaptive run keeps MaxTicks+1 records, and carving them from one
	// allocation keeps construction cheap when RunMany churns through
	// thousands of short-lived Sims.
	flat := make([]float64, len(s.recs)*nblocks)
	for i := range s.recs {
		rec := &s.recs[i]
		rec.blocks = make([][]float64, len(stack.Layers))
		for li, layer := range stack.Layers {
			n := len(layer.Blocks)
			rec.blocks[li], flat = flat[:n:n], flat[n:]
		}
		s.allocDerived(&rec.d)
	}
	s.allocDerived(&s.held)
	s.allocDerived(&s.endScratch)

	// Policy and metric temperature edges the adaptive engine must not
	// step across: the controller target, the hot-spot/migration
	// threshold, and the TALB weight bands when active.
	s.thresholds = []float64{float64(controller.TargetTemp), float64(stats.HotSpotThreshold)}
	if s.WTab != nil {
		for _, b := range s.WTab.Bands {
			s.thresholds = append(s.thresholds, float64(b))
		}
	}

	// Tick count of the configured run: the first n with
	// tick0 + n·Tick ≥ Duration, matching Run's loop condition exactly.
	n := int(float64((cfg.Duration - s.tick0) / cfg.Tick))
	for n > 0 && s.tick0+units.Second(n-1)*cfg.Tick >= cfg.Duration {
		n--
	}
	for s.tick0+units.Second(n)*cfg.Tick < cfg.Duration {
		n++
	}
	s.totalTicks = n

	s.readDerived(&s.held)
	copy(s.coreTemps, s.held.coreTemps)
	for li := range s.blockTemps {
		copy(s.blockTemps[li], s.held.blockTemps[li])
	}
	copy(s.unitTemps, s.held.unitTemps)
	s.lastTmax = s.held.tmax
	return s, nil
}

// FullLoadPowers returns the per-layer per-block reference power map used
// by the LUT sweep: full utilization with leakage evaluated at the target
// temperature. Thin forwarder — the implementation lives with the other
// shared artifacts in internal/platform.
func FullLoadPowers(stack *floorplan.Stack) [][]float64 {
	blocks, err := platform.FullLoadPowers(stack)
	if err != nil {
		// FullLoadPowers constructs a valid activity for its own stack.
		panic(err)
	}
	return blocks
}

// Step advances the emitted state by one base tick. The engine may have
// to do more than one tick of forward work (the adaptive engine runs a
// whole macro interval at once and buffers its ticks); emission is always
// at base-tick granularity.
func (s *Sim) Step() error {
	if s.emitNext >= s.completedN {
		// All finalized ticks consumed: recycle their records, keeping a
		// carried (run but unsolved) tick at the front, and advance.
		carry := s.pendN - s.completedN
		for i := 0; i < carry; i++ {
			s.recs[i], s.recs[s.completedN+i] = s.recs[s.completedN+i], s.recs[i]
		}
		s.pendN, s.completedN, s.emitNext = carry, 0, 0
		if err := s.engine.Advance(enginePhases{s}); err != nil {
			return err
		}
		if s.completedN == 0 {
			return fmt.Errorf("sim: stepping engine completed no tick")
		}
	}
	rec := &s.recs[s.emitNext]
	s.emitNext++
	return s.emit(rec)
}

// Time returns the emitted simulation clock (negative during warm-up).
// The adaptive engine's internal forward clock may run ahead of it by up
// to one macro-step.
func (s *Sim) Time() units.Second { return s.time }

// Tmax returns the latest emitted maximum die temperature.
func (s *Sim) Tmax() units.Celsius { return s.lastTmax }

// AppliedSetting returns the pump setting currently commanded by the
// controller (forward state: under adaptive stepping it may be ahead of
// the emitted tick).
func (s *Sim) AppliedSetting() pump.Setting { return s.applied }

// Migrations returns the scheduler's cumulative migration count as of the
// latest emitted tick.
func (s *Sim) Migrations() int64 { return s.outMigrations }

// ChipPower returns the chip power drawn during the latest tick (0 before
// the first Step).
func (s *Sim) ChipPower() units.Watt { return s.lastChip }

// PumpPower returns the pump's electrical power at the delivered setting
// of the latest emitted tick (0 for air-cooled runs).
func (s *Sim) PumpPower() units.Watt {
	if s.Cfg.Cooling == Air {
		return 0
	}
	return s.outPumpW
}

// DeliveredSetting returns the pump setting actually delivering flow
// (after transition delays and pump faults) at the latest emitted tick,
// or -1 for air-cooled runs.
func (s *Sim) DeliveredSetting() int {
	if s.Cfg.Cooling == Air {
		return -1
	}
	return s.outSetting
}

// DeliveredFlow returns the per-cavity flow reaching the cavities at the
// latest emitted tick (0 for air-cooled runs).
func (s *Sim) DeliveredFlow() units.LitersPerMinute {
	if s.Pump == nil {
		return 0
	}
	return s.outFlow
}

// Refits returns the flow controller's ARMA reconstruction count as of
// the latest emitted tick (0 when the paper's controller is not active).
func (s *Sim) Refits() int {
	if s.Ctrl == nil {
		return 0
	}
	return s.outRefits
}

// NumLayers returns the number of stack layers.
func (s *Sim) NumLayers() int { return len(s.Stack.Layers) }

// LayerTempsInto fills maxC and meanC (each of length NumLayers) with the
// latest per-layer temperatures: maxC[li] is the hottest unit sensor of
// layer li (core hot spots, uniform-block means), meanC[li] the unweighted
// mean of the layer's block temperatures. Allocation-free: the per-tick
// streaming path depends on it.
func (s *Sim) LayerTempsInto(maxC, meanC []units.Celsius) error {
	if len(maxC) != len(s.blockTemps) || len(meanC) != len(s.blockTemps) {
		return fmt.Errorf("sim: LayerTempsInto needs slices of length %d, got %d/%d",
			len(s.blockTemps), len(maxC), len(meanC))
	}
	u := 0
	for li := range s.blockTemps {
		var sum units.Celsius
		max := s.unitTemps[u]
		for bi := range s.blockTemps[li] {
			sum += s.blockTemps[li][bi]
			if s.unitTemps[u] > max {
				max = s.unitTemps[u]
			}
			u++
		}
		maxC[li] = max
		meanC[li] = sum / units.Celsius(len(s.blockTemps[li]))
	}
	return nil
}

// Run executes warm-up plus the measured duration and reports the metrics.
// ctx is checked every tick, so cancellation aborts the run within one
// simulated tick and returns ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	s, err := New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return s.runToEnd(ctx)
}

// runToEnd drives a freshly built simulation through its configured
// duration — Run's loop, shared with the gang scheduler's fallback path.
func (s *Sim) runToEnd(ctx context.Context) (*Result, error) {
	for s.time < s.Cfg.Duration {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := s.time
		if err := s.Step(); err != nil {
			return nil, fmt.Errorf("sim: step at t=%v: %w", s.time, err)
		}
		if s.Cfg.Observer != nil {
			s.Cfg.Observer(s, st >= 0)
		}
	}
	return s.Result(), nil
}

// Result finalizes metrics for the elapsed measurement window. Every
// field reflects the latest *emitted* tick, so a mid-session report is
// internally consistent even while the adaptive engine's forward pass
// runs ahead of emission.
func (s *Sim) Result() *Result {
	r := &Result{
		Report:       s.Stats.Report(),
		Migrations:   s.outMigrations,
		BalanceMoves: s.outBalance,
		PendingAtEnd: s.outPending,
		MeanResponse: s.outResponse,
	}
	if s.Ctrl != nil {
		r.Refits = s.outRefits
	}
	if secs := float64(r.SimTime); secs > 0 {
		r.MeanFlowLPM = s.flowTime / secs
	}
	r.Stepping = s.engine.Counters()
	r.BatchedSolves = s.batchedSolves
	r.Supernodes, r.MeanPanelWidth, r.SupernodalSolver = s.Model.SupernodeStats()
	return r
}
