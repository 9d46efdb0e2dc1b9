// Package platform owns the expensive, immutable artifacts of one
// physical stack configuration — the floorplan, the discretized thermal
// grid, the assembled thermal network, the pump model, the LDLᵀ symbolic
// analysis of the thermal system matrix, the flow-rate controller's
// lookup table and the TALB thermal weight table — and shares them
// across any number of concurrent simulation runs, sessions, experiment
// matrices and service jobs.
//
// The paper's evaluation (and a production deployment of the service) is
// hundreds of (system, cooling, policy, workload) runs over the same few
// physical stacks. Everything above except per-run mutable state depends
// only on the (layers, cooling class, grid resolution, thermal boundary
// config) tuple, which Spec canonicalizes into a comparable cache key.
// Each artifact is built at most once per Platform via singleflight-style
// deduplication: the first caller builds while later callers wait, and a
// failed build (a canceled context) is not cached, so a later caller
// retries. Build counters make "was this warm?" testable.
//
// The numeric LDLᵀ factors of the transient systems are platform
// artifacts too: the backward-Euler matrix depends only on the platform,
// on whether the pump runs and on dt — every non-zero pump setting gives
// the same matrix — so every run model solves through one shared factor
// per (flow > 0, dt) key, factorized once by the first model that needs
// it.
//
// A Platform is safe for unlimited concurrent use. Mutable solver state
// is never shared: NewModel hands every caller its own rcnet.Model over
// the platform's read-only rcnet.Network, seeded with a private clone of
// the shared symbolic analysis and solving through its own views of the
// shared, immutable factors.
package platform

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/controller"
	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/power"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/units"
)

// Spec is the canonical identity of a platform: everything the built
// artifacts depend on, and nothing they don't (policy, workload, seed,
// duration and faults are per-run concerns). The struct is comparable, so
// it doubles as the cache key.
type Spec struct {
	// Layers is the stack height (2 or 4, the paper's T1 systems).
	Layers int
	// Liquid selects the liquid-cooled package (true for the Max and Var
	// cooling modes, false for Air). Air platforms carry no pump and no
	// flow LUT, but do carry TALB weights.
	Liquid bool
	// GridNX, GridNY are the thermal grid resolution.
	GridNX, GridNY int
	// RC is the thermal boundary/solver configuration (comparable: no
	// slices or pointers).
	RC rcnet.Config
}

// Canonical returns the spec with defaulted fields normalized, so two
// specs that build identical artifacts compare equal (and hit the same
// cache entry).
func (s Spec) Canonical() Spec {
	if s.RC.SolverTol == 0 {
		s.RC.SolverTol = rcnet.DefaultConfig().SolverTol
	}
	return s
}

// Validate reports whether the spec is buildable.
func (s Spec) Validate() error {
	if s.Layers != 2 && s.Layers != 4 {
		return fmt.Errorf("platform: unsupported layer count %d (want 2 or 4)", s.Layers)
	}
	if s.GridNX <= 0 || s.GridNY <= 0 {
		return fmt.Errorf("platform: non-positive grid %dx%d", s.GridNX, s.GridNY)
	}
	return nil
}

// String implements fmt.Stringer (cache diagnostics).
func (s Spec) String() string {
	cooling := "air"
	if s.Liquid {
		cooling = "liquid"
	}
	return fmt.Sprintf("%dL/%s/%dx%d/solver=%v", s.Layers, cooling, s.GridNX, s.GridNY, s.RC.Solver)
}

// Stats counts the expensive builds a platform has performed. Each
// counter saturates at one over the platform's lifetime unless a build
// failed and was retried; warm consumers observe the counters unchanged.
type Stats struct {
	// SymbolicBuilds counts LDLᵀ symbolic analyses (orderings + fill).
	SymbolicBuilds int
	// LUTBuilds counts flow-LUT steady-state sweeps.
	LUTBuilds int
	// WeightBuilds counts TALB weight-table steady-state analyses.
	WeightBuilds int
	// Models counts rcnet models handed out by NewModel.
	Models int
	// LUTDiskLoads counts LUTs warm-started from the persistence
	// directory instead of swept (excluded from LUTBuilds).
	LUTDiskLoads int
	// WeightDiskLoads counts TALB weight tables warm-started from the
	// persistence directory instead of analyzed (excluded from
	// WeightBuilds).
	WeightDiskLoads int
	// FactorBuilds counts the numeric LDLᵀ factorizations of the run
	// models' shared factor cache: one per distinct (flow > 0, dt) key —
	// one per tick dt for runs whose pump never stops — not per run or
	// pump setting. FactorHits counts run-model requests served by a
	// factor another model had already built. The LUT and weight sweeps
	// factor privately and are counted in neither.
	FactorBuilds int
	FactorHits   int
	// Supernodes and MeanPanelWidth describe the supernodal partition of
	// the built symbolic analysis (0 before the analysis exists). The
	// mean panel width n/supernodes is the amortization factor of the
	// direct solver's dense-panel kernels; cache aggregation keeps the
	// ratio exact by node-weighting (see CacheStats).
	Supernodes     int
	MeanPanelWidth float64
}

// once deduplicates one expensive build: the first caller executes it
// while later callers wait on the pending channel (or their context). A
// successful result is cached forever; a failure is not, so the next
// caller retries — a canceled LUT sweep must not poison the platform.
type once[T any] struct {
	val     T
	built   bool
	builds  int
	pending chan struct{}
}

// get runs build under p.mu-coordinated deduplication. mu must be the
// platform mutex guarding this cell.
func (o *once[T]) get(ctx context.Context, mu *sync.Mutex, build func() (T, error)) (T, error) {
	for {
		mu.Lock()
		if o.built {
			v := o.val
			mu.Unlock()
			return v, nil
		}
		if o.pending == nil {
			ch := make(chan struct{})
			o.pending = ch
			mu.Unlock()
			// Waiters must be released even if build panics — otherwise
			// every later consumer of this artifact would block forever on
			// a channel nobody will close. The deferred cleanup lets them
			// retry (and propagates the panic to this caller).
			finished := false
			defer func() {
				if finished {
					return
				}
				mu.Lock()
				o.pending = nil
				close(ch)
				mu.Unlock()
			}()
			v, err := build()
			mu.Lock()
			o.pending = nil
			if err == nil {
				o.val, o.built = v, true
				o.builds++
			}
			close(ch)
			mu.Unlock()
			finished = true
			return v, err
		}
		ch := o.pending
		mu.Unlock()
		select {
		case <-ch:
			// Either built (loop returns it) or failed (loop may rebuild).
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// Platform bundles the shared artifacts of one Spec. Zero value is
// unusable; construct with New (or through a Cache).
type Platform struct {
	spec  Spec
	stack *floorplan.Stack
	grid  *grid.Grid
	net   *rcnet.Network // assembled once, shared read-only by every model
	pump  *pump.Pump     // nil for air-cooled platforms
	dir   string         // artifact persistence directory ("" = memory only)

	mu              sync.Mutex
	symb            once[*mat.LDLSymbolic]
	lut             once[*controller.LUT]
	weights         once[*controller.WeightTable]
	fullLoad        once[[][]float64]
	factors         *rcnet.Factors // run models' numeric factors, per (flow > 0, dt)
	models          int
	diskLoads       int // LUTs warm-started from dir instead of swept
	weightDiskLoads int // weight tables warm-started from dir
}

// New builds the cheap skeleton of a platform — floorplan, grid, thermal
// network, pump.
// The expensive artifacts (symbolic analysis, LUT, weights) are built
// lazily by their accessors, deduplicated across concurrent callers.
func New(spec Spec) (*Platform, error) { return NewWithDir(spec, "") }

// NewWithDir is New plus artifact persistence: with a non-empty dir the
// flow LUT — the platform's most expensive artifact, a steady-state sweep
// over every pump setting — and the TALB weight table are loaded from
// spec-keyed JSON files in dir when they exist and saved there after a
// fresh build, so a restarted process warm-starts from the previous
// one's analyses. Corrupt or stale files are ignored (the analysis
// simply runs again); save failures are non-fatal for the same reason.
func NewWithDir(spec Spec, dir string) (*Platform, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var stack *floorplan.Stack
	switch spec.Layers {
	case 2:
		stack = floorplan.NewT1Stack2(spec.Liquid)
	case 4:
		stack = floorplan.NewT1Stack4(spec.Liquid)
	}
	g, err := grid.Build(stack, grid.DefaultParams(spec.GridNX, spec.GridNY))
	if err != nil {
		return nil, err
	}
	net, err := rcnet.NewNetwork(g, spec.RC)
	if err != nil {
		return nil, err
	}
	p := &Platform{spec: spec, stack: stack, grid: g, net: net, dir: dir, factors: rcnet.NewFactors()}
	if spec.Liquid {
		p.pump, err = pump.New(stack.NumCavities())
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Spec returns the canonical identity the platform was built for.
func (p *Platform) Spec() Spec { return p.spec }

// Stack returns the shared floorplan (read-only).
func (p *Platform) Stack() *floorplan.Stack { return p.stack }

// Grid returns the shared discretized grid (read-only).
func (p *Platform) Grid() *grid.Grid { return p.grid }

// Pump returns the shared pump model, nil for air-cooled platforms.
func (p *Platform) Pump() *pump.Pump { return p.pump }

// symbolic builds (once) the LDLᵀ symbolic analysis of the platform's
// thermal system matrix.
func (p *Platform) symbolic(ctx context.Context) (*mat.LDLSymbolic, error) {
	return p.symb.get(ctx, &p.mu, p.net.Analyze)
}

// Warm eagerly builds the expensive artifacts a run on this platform
// would otherwise build lazily at first use: the direct solver's
// symbolic analysis always (unless the spec forces CG), the flow LUT
// when lut is set (liquid platforms only — the flag is ignored
// otherwise) and the TALB weight table when weights is set. Builds go
// through the same deduplication cells as the lazy path, so a Warm
// racing real runs never repeats work, and a canceled build is not
// cached — the next caller retries. The campaign engine calls this once
// per distinct platform shape before fanning members out.
func (p *Platform) Warm(ctx context.Context, lut, weights bool) error {
	if p.spec.RC.Solver != rcnet.SolverCG {
		if _, err := p.symbolic(ctx); err != nil {
			return err
		}
	}
	if lut && p.spec.Liquid {
		if _, err := p.LUT(ctx); err != nil {
			return err
		}
	}
	if weights {
		if _, err := p.Weights(ctx); err != nil {
			return err
		}
	}
	return nil
}

// NewModel returns a fresh thermal model on the shared network. Every
// model owns its mutable state (temperatures, scratch) and reads the
// network's assembly in place; with the direct solver it is seeded with
// a private clone of the shared symbolic analysis, so per-model
// construction skips assembly, ordering and fill analysis entirely, and
// it solves through the platform's shared numeric factors. ctx bounds
// the wait on a concurrent symbolic build.
func (p *Platform) NewModel(ctx context.Context) (*rcnet.Model, error) {
	return p.newModel(ctx, p.factors)
}

// NewScratchModel is NewModel with a private numeric factor cache, for
// one-off analyses — the LUT and weight sweeps, a flow bisection — whose
// steady-state (dt = 0) keys are set-up scratch: their factors are
// dropped with the model instead of kept for the platform's lifetime,
// and they never churn the run models' shared factors out.
func (p *Platform) NewScratchModel(ctx context.Context) (*rcnet.Model, error) {
	return p.newModel(ctx, nil)
}

// newModel builds a model drawing its numeric factors from factors (nil:
// a private cache).
func (p *Platform) newModel(ctx context.Context, factors *rcnet.Factors) (*rcnet.Model, error) {
	var symb *mat.LDLSymbolic
	if p.spec.RC.Solver != rcnet.SolverCG {
		s, err := p.symbolic(ctx)
		if err != nil {
			return nil, err
		}
		symb = s
	}
	m, err := p.net.NewModel(symb, factors)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.models++
	p.mu.Unlock()
	return m, nil
}

// FullLoadPowers returns the per-layer per-block reference power map used
// by the LUT sweep: full utilization with leakage evaluated at the target
// temperature. The slices are shared and must not be modified.
func (p *Platform) FullLoadPowers(ctx context.Context) ([][]float64, error) {
	return p.fullLoad.get(ctx, &p.mu, func() ([][]float64, error) {
		return FullLoadPowers(p.stack)
	})
}

// LUT returns the flow-rate controller's lookup table, building it on
// first use (a steady-state sweep over every pump setting — seconds of
// solver time at paper resolution) and sharing it with every later
// caller. Only liquid-cooled platforms carry a LUT.
func (p *Platform) LUT(ctx context.Context) (*controller.LUT, error) {
	if !p.spec.Liquid {
		return nil, fmt.Errorf("platform: flow LUT needs a liquid-cooled platform (%v)", p.spec)
	}
	return p.lut.get(ctx, &p.mu, func() (*controller.LUT, error) {
		if lut := p.loadLUT(); lut != nil {
			p.mu.Lock()
			p.diskLoads++
			p.mu.Unlock()
			return lut, nil
		}
		full, err := p.FullLoadPowers(ctx)
		if err != nil {
			return nil, err
		}
		m, err := p.NewScratchModel(ctx)
		if err != nil {
			return nil, err
		}
		lut, err := controller.BuildLUT(ctx, m, p.pump, full,
			controller.TargetTemp, controller.DefaultLadder())
		if err != nil {
			return nil, err
		}
		p.saveLUT(lut)
		return lut, nil
	})
}

// Weights returns the TALB thermal weight table, building it on first use
// (one steady-state analysis) and sharing it afterwards. Both liquid- and
// air-cooled platforms carry weights.
func (p *Platform) Weights(ctx context.Context) (*controller.WeightTable, error) {
	return p.weights.get(ctx, &p.mu, func() (*controller.WeightTable, error) {
		if wt := p.loadWeights(); wt != nil {
			p.mu.Lock()
			p.weightDiskLoads++
			p.mu.Unlock()
			return wt, nil
		}
		m, err := p.NewScratchModel(ctx)
		if err != nil {
			return nil, err
		}
		wt, err := controller.BuildWeights(ctx, m, p.pump, power.CoreActivePower)
		if err != nil {
			return nil, err
		}
		p.saveWeights(wt)
		return wt, nil
	})
}

// lutPath is the spec-keyed artifact file: human-scannable dimensions
// plus a hash of the full thermal configuration, so two specs that would
// sweep different LUTs never share a file.
func (p *Platform) lutPath() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", p.spec)
	cooling := "air"
	if p.spec.Liquid {
		cooling = "liquid"
	}
	name := fmt.Sprintf("lut-%dl-%s-%dx%d-%016x.json",
		p.spec.Layers, cooling, p.spec.GridNX, p.spec.GridNY, h.Sum64())
	return filepath.Join(p.dir, name)
}

// loadLUT returns the persisted LUT for this spec, or nil when no dir is
// configured, the file is absent, or it fails validation.
func (p *Platform) loadLUT() *controller.LUT {
	if p.dir == "" {
		return nil
	}
	f, err := os.Open(p.lutPath())
	if err != nil {
		return nil
	}
	defer f.Close()
	lut, err := controller.LoadLUT(f)
	if err != nil || lut.Target != controller.TargetTemp {
		return nil
	}
	return lut
}

// saveLUT persists a freshly built LUT, atomically (temp file + rename)
// so concurrent processes sharing the directory never read a torn file.
// Best-effort: a failure only means the next process re-sweeps.
func (p *Platform) saveLUT(lut *controller.LUT) {
	if p.dir == "" {
		return
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return
	}
	path := p.lutPath()
	tmp, err := os.CreateTemp(p.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	if err := lut.SaveJSON(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// weightsPath is the spec-keyed weight-table file, keyed like lutPath so
// two specs with different thermal configurations never share a table.
func (p *Platform) weightsPath() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", p.spec)
	cooling := "air"
	if p.spec.Liquid {
		cooling = "liquid"
	}
	name := fmt.Sprintf("weights-%dl-%s-%dx%d-%016x.json",
		p.spec.Layers, cooling, p.spec.GridNX, p.spec.GridNY, h.Sum64())
	return filepath.Join(p.dir, name)
}

// loadWeights returns the persisted weight table for this spec, or nil
// when no dir is configured, the file is absent, or it fails validation
// (including a core count that no longer matches the stack).
func (p *Platform) loadWeights() *controller.WeightTable {
	if p.dir == "" {
		return nil
	}
	f, err := os.Open(p.weightsPath())
	if err != nil {
		return nil
	}
	defer f.Close()
	wt, err := controller.LoadWeights(f)
	if err != nil || len(wt.Base) != len(p.stack.Cores()) {
		return nil
	}
	return wt
}

// saveWeights persists a freshly built weight table, atomically (temp
// file + rename), best-effort like saveLUT.
func (p *Platform) saveWeights(wt *controller.WeightTable) {
	if p.dir == "" {
		return
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return
	}
	path := p.weightsPath()
	tmp, err := os.CreateTemp(p.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	if err := wt.SaveJSON(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// Stats returns the platform's build counters.
func (p *Platform) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		SymbolicBuilds:  p.symb.builds,
		LUTBuilds:       p.lut.builds - p.diskLoads,
		WeightBuilds:    p.weights.builds - p.weightDiskLoads,
		Models:          p.models,
		LUTDiskLoads:    p.diskLoads,
		WeightDiskLoads: p.weightDiskLoads,
	}
	st.FactorBuilds, st.FactorHits = p.factors.Counts()
	if p.symb.built {
		st.Supernodes = p.symb.val.Supernodes()
		st.MeanPanelWidth = p.symb.val.MeanPanelWidth()
	}
	return st
}

// FullLoadPowers computes the full-utilization per-layer per-block power
// map of a stack with leakage evaluated at the controller target
// temperature — the reference load the LUT sweep's ladder scales.
func FullLoadPowers(stack *floorplan.Stack) ([][]float64, error) {
	pm := power.New(stack)
	n := len(stack.Cores())
	act := power.Activity{
		CoreBusy:    make([]float64, n),
		CoreState:   make([]power.CoreState, n),
		MemActivity: 1,
	}
	for i := range act.CoreBusy {
		act.CoreBusy[i] = 1
		act.CoreState[i] = power.StateActive
	}
	temps := make([][]units.Celsius, len(stack.Layers))
	for li, layer := range stack.Layers {
		temps[li] = make([]units.Celsius, len(layer.Blocks))
		for bi := range temps[li] {
			temps[li][bi] = controller.TargetTemp
		}
	}
	return pm.BlockPowers(act, temps)
}
