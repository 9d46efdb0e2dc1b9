package coolsim

// Option tunes how a scenario is executed (as opposed to Scenario, which
// describes what is simulated). Options apply to Run, RunMany, RunTraced
// and NewSession.
type Option func(*config)

type config struct {
	workers        int
	gridNX, gridNY int
	tick           float64
	stepping       *Stepping
	observer       func(*Sample)
	memberObserver func(member int, smp *Sample)
	pcache         *PlatformCache
	controlEvery   int
	batch          *BatchCounters
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithWorkers bounds RunMany's worker pool; n ≤ 0 (the default) selects
// runtime.NumCPU(). Reports are byte-identical for any worker count.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithGrid overrides the thermal grid resolution of every scenario in the
// call, taking precedence over Scenario.GridNX/GridNY.
func WithGrid(nx, ny int) Option {
	return func(c *config) { c.gridNX, c.gridNY = nx, ny }
}

// WithTick overrides the sampling interval in seconds (default 0.1, the
// paper's 100 ms tick).
func WithTick(seconds float64) Option {
	return func(c *config) { c.tick = seconds }
}

// WithStepper overrides the time-advance engine of every scenario in the
// call, taking precedence over Scenario.Stepping: Stepping{} keeps the
// fixed base-tick loop, Stepping{Mode: "adaptive"} (plus optional
// ToleranceC / MaxStepS knobs) enables adaptive thermal macro-stepping.
// Samples are emitted at the base tick either way.
func WithStepper(st Stepping) Option {
	return func(c *config) { c.stepping = &st }
}

// WithPlatformCache makes the call reuse (and populate) pc's shared
// per-stack artifacts: stack, grid, the direct solver's symbolic
// analysis, flow LUT and TALB weights. The first run of each stack shape
// builds them; every later run or session of the same shape — including
// concurrent ones — starts in milliseconds instead of re-deriving
// seconds of steady-state analysis. Results are bit-identical to cold-built runs. Nil (the
// default) keeps the cold path: every run builds privately.
func WithPlatformCache(pc *PlatformCache) Option {
	return func(c *config) { c.pcache = pc }
}

// WithObserver registers a per-tick hook on Run: fn receives every Sample
// of the run, warm-up ticks included (negative Sample.Time). The *Sample
// is reused between ticks — observers that retain it must Clone. The
// observer adds no allocations to the tick path. RunMany ignores it.
func WithObserver(fn func(*Sample)) Option {
	return func(c *config) { c.observer = fn }
}

// WithMemberObserver registers a per-tick hook on RunMany: fn receives
// every Sample of every scenario in the call, tagged with the scenario's
// index in the input slice. Unlike WithObserver it is safe under
// RunMany's concurrency because each member owns a private Sample — but
// fn itself is called concurrently from the worker pool (and from
// lock-stepped gangs), so it must be safe for concurrent use across
// members. Within one member, calls are ordered by tick. The *Sample is
// reused between that member's ticks: Clone to retain. Run, RunTraced
// and NewSession ignore it.
func WithMemberObserver(fn func(member int, smp *Sample)) Option {
	return func(c *config) { c.memberObserver = fn }
}

// WithControlEvery overrides the flow-controller decision cadence (base
// ticks) of every scenario in the call, taking precedence over
// Scenario.ControlEvery. n must be positive (0 restores the scenario's
// own setting); negative values fail with ErrBadControlEvery.
func WithControlEvery(n int) Option {
	return func(c *config) { c.controlEvery = n }
}

// WithBatchCounters makes the call report batched-solve statistics into
// ctr: when RunMany co-schedules platform-sharing scenarios over fewer
// worker slots, each lock-stepped tick serves compatible thermal solves
// through one multi-RHS sweep, and ctr counts those sweeps and their
// widths. ctr may be shared across calls and read concurrently.
func WithBatchCounters(ctr *BatchCounters) Option {
	return func(c *config) { c.batch = ctr }
}
