package coolsim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// Sample is the per-tick observation a Session yields: the state the
// batch-only Report hides. Fields are plain and JSON-tagged; Sample is
// the NDJSON line format of cmd/coolserved's stream endpoint.
//
// The Session reuses one Sample (including its slices) across ticks to
// keep the streaming path allocation-free — callers that retain a Sample
// beyond the next Step must Clone it.
type Sample struct {
	// Time in seconds since measurement start: the simulation clock at
	// the end of the tick (at or below zero while warming up).
	Time float64 `json:"t_s"`
	// Measured reports whether this tick counts toward the Report's
	// measurement window (ticks that start at t ≥ 0). The number of
	// Measured samples in a full session equals Report.Samples.
	Measured bool `json:"measured"`
	// TmaxC is the maximum die temperature.
	TmaxC float64 `json:"tmax_c"`
	// LayerMaxC / LayerMeanC are per-stack-layer hottest-sensor and mean
	// temperatures, index 0 the bottom layer.
	LayerMaxC  []float64 `json:"layer_max_c"`
	LayerMeanC []float64 `json:"layer_mean_c"`
	// Setting is the pump setting actually delivering flow (after
	// transition delays and faults); -1 for air-cooled runs.
	Setting int `json:"setting"`
	// FlowMLMin is the delivered per-cavity flow in ml/min.
	FlowMLMin float64 `json:"flow_mlmin"`
	// ChipPowerW and PumpPowerW are the powers drawn during the tick.
	ChipPowerW float64 `json:"chip_w"`
	PumpPowerW float64 `json:"pump_w"`
	// Migrations is the cumulative thread migration count.
	Migrations int64 `json:"migrations"`
	// Refits is the cumulative ARMA predictor reconstruction count.
	Refits int `json:"refits"`
}

// Clone returns a deep copy safe to retain across Steps.
func (s *Sample) Clone() Sample {
	c := *s
	c.LayerMaxC = append([]float64(nil), s.LayerMaxC...)
	c.LayerMeanC = append([]float64(nil), s.LayerMeanC...)
	return c
}

// sampler owns one reused Sample plus the scratch needed to fill it from
// a simulator without allocating — the Session's own refill path, also
// stamped out per member by RunMany's WithMemberObserver wiring.
type sampler struct {
	sample    Sample
	layerMax  []units.Celsius
	layerMean []units.Celsius
}

// size allocates the per-layer slices once, on first use.
func (sp *sampler) size(n int) {
	if len(sp.layerMax) == n {
		return
	}
	sp.layerMax = make([]units.Celsius, n)
	sp.layerMean = make([]units.Celsius, n)
	sp.sample.LayerMaxC = make([]float64, n)
	sp.sample.LayerMeanC = make([]float64, n)
}

// fill refreshes the reused Sample from the simulator state. It must not
// allocate: the SessionStep benchmark holds the streaming path to the same
// 0 B/op overhead budget as the underlying sim tick.
func (sp *sampler) fill(s *sim.Sim, measured bool) *Sample {
	sp.size(s.NumLayers())
	sp.sample.Time = float64(s.Time())
	sp.sample.Measured = measured
	sp.sample.TmaxC = float64(s.Tmax())
	// Lengths match by construction; the error path is unreachable.
	_ = s.LayerTempsInto(sp.layerMax, sp.layerMean)
	for i := range sp.layerMax {
		sp.sample.LayerMaxC[i] = float64(sp.layerMax[i])
		sp.sample.LayerMeanC[i] = float64(sp.layerMean[i])
	}
	sp.sample.Setting = s.DeliveredSetting()
	sp.sample.FlowMLMin = s.DeliveredFlow().MilliLitersPerMinute()
	sp.sample.ChipPowerW = float64(s.ChipPower())
	sp.sample.PumpPowerW = float64(s.PumpPower())
	sp.sample.Migrations = s.Migrations()
	sp.sample.Refits = s.Refits()
	return &sp.sample
}

// Session is an incrementally-executed scenario: each Step advances one
// 100 ms tick and yields a Sample, until ErrSessionDone. Use it to watch
// a run in flight (live dashboards, the coolserved stream endpoint, custom
// stopping rules) where Run only reports at the end.
//
// A Session is not safe for concurrent use.
type Session struct {
	ctx      context.Context
	sc       Scenario
	cfg      config
	sim      *sim.Sim
	duration units.Second
	smp      sampler
	done     bool
}

// NewSession assembles a scenario for incremental execution. The context
// is checked on every Step: canceling it makes Step (and any Run driving
// the session) return ctx.Err() within one tick.
func NewSession(ctx context.Context, sc Scenario, opts ...Option) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := buildConfig(opts)
	simCfg, err := sc.simConfig(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.pcache != nil {
		if err := cfg.pcache.attach(&simCfg); err != nil {
			return nil, err
		}
	}
	s, err := sim.New(ctx, simCfg)
	if err != nil {
		return nil, err
	}
	ss := &Session{
		ctx:      ctx,
		sc:       sc,
		cfg:      cfg,
		sim:      s,
		duration: simCfg.Duration,
	}
	ss.smp.size(s.NumLayers())
	return ss, nil
}

// Step advances one tick and returns the resulting Sample, which is valid
// until the next Step (Clone to retain). It returns ErrSessionDone once
// the configured duration has elapsed, and ctx.Err() if the session's
// context has been canceled.
func (ss *Session) Step() (*Sample, error) {
	if ss.done {
		return nil, ErrSessionDone
	}
	if err := ss.ctx.Err(); err != nil {
		return nil, err
	}
	if ss.sim.Time() >= ss.duration {
		ss.done = true
		return nil, ErrSessionDone
	}
	measured := ss.sim.Time() >= 0 // the tick about to run starts now
	if err := ss.sim.Step(); err != nil {
		return nil, fmt.Errorf("coolsim: step at t=%v: %w", ss.sim.Time(), err)
	}
	return ss.smp.fill(ss.sim, measured), nil
}

// Done reports whether the session has run to completion.
func (ss *Session) Done() bool { return ss.done }

// TotalTicks returns how many Steps the full session will take (warm-up
// plus measured duration at the base tick) — the expected-frame budget
// for stream ETAs.
func (ss *Session) TotalTicks() int {
	tick := float64(ss.sim.Cfg.Tick)
	if tick <= 0 {
		return 0
	}
	return int(float64(ss.duration+ss.sim.Cfg.Warmup)/tick + 0.5)
}

// Time returns the simulation clock in seconds (negative during warm-up).
func (ss *Session) Time() float64 { return float64(ss.sim.Time()) }

// Report finalizes the metrics collected so far. It is valid at any
// point of the session (typically after ErrSessionDone).
func (ss *Session) Report() *Report {
	return newReport(ss.sc, ss.sim.Result())
}

// drain runs the session to completion on behalf of Run, feeding the
// observer if one is registered.
func (ss *Session) drain() (*Report, error) {
	for {
		smp, err := ss.Step()
		if err != nil {
			if errors.Is(err, ErrSessionDone) {
				return ss.Report(), nil
			}
			return nil, err
		}
		if ss.cfg.observer != nil {
			ss.cfg.observer(smp)
		}
	}
}
