// Package controller implements the paper's primary contribution: the
// energy-efficient liquid flow-rate controller of Section IV.
//
// Offline, a lookup table is built from steady-state analysis of the
// thermal model (the analysis behind Fig. 5): for a ladder of power levels
// and each discrete pump setting, the steady-state maximum temperature is
// recorded. At runtime, the predicted maximum temperature (ARMA forecast,
// 500 ms ahead at 100 ms sampling) is inverted through the table to find
// the minimum pump setting that guarantees cooling below the target
// temperature (80 °C). A 2 °C hysteresis prevents rapid oscillation: after
// switching up, the controller does not step down until the predicted
// maximum temperature is at least 2 °C below the boundary between the two
// settings. SPRT monitors the predictor's residuals and triggers a refit
// when the workload trend changes.
package controller

import (
	"context"
	"fmt"
	"math"

	"repro/internal/arma"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/sprt"
	"repro/internal/units"
)

// TargetTemp is the paper's target operating temperature.
const TargetTemp units.Celsius = 80

// Hysteresis is the paper's 2 °C down-switch guard band.
const Hysteresis units.Celsius = 2

// ForecastSteps is how far ahead the controller predicts: 500 ms at the
// 100 ms sampling rate.
const ForecastSteps = 5

// LUT is the temperature-indexed flow lookup table. Ladder entries scale a
// reference full-load power map; TmaxAt[s][k] is the steady-state maximum
// temperature at pump setting s and ladder point k.
type LUT struct {
	Target units.Celsius
	Ladder []float64
	TmaxAt [][]units.Celsius // [pump.NumSettings][len(Ladder)]
	// Required[k] is the minimum setting keeping ladder point k at or
	// below Target (pump.MaxSetting() if none can).
	Required []pump.Setting
}

// DefaultLadder spans idle to 140 % of full load.
func DefaultLadder() []float64 {
	out := make([]float64, 15)
	for i := range out {
		out[i] = float64(i) * 0.1
	}
	return out
}

// BuildLUT performs the steady-state sweep on the given thermal model.
// fullLoad is the per-layer per-block reference power map (typically the
// stack's full-utilization power including leakage at the target
// temperature); ladder scales it.
//
// The sweep leans on the model's factorization cache: the steady-state
// system matrix is the same at every non-zero pump setting, so with the
// default direct solver it is factored exactly once and all
// pump.NumSettings × len(ladder) sweep cells (and their inner fixed-point
// iterations) reuse the cached factors.
// ctx is checked between sweep cells, so cancellation aborts the build
// within one steady-state solve and returns ctx.Err().
func BuildLUT(ctx context.Context, m *rcnet.Model, pm *pump.Pump, fullLoad [][]float64, target units.Celsius, ladder []float64) (*LUT, error) {
	if len(ladder) < 2 {
		return nil, fmt.Errorf("controller: ladder needs ≥2 points")
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i] <= ladder[i-1] {
			return nil, fmt.Errorf("controller: ladder must be strictly increasing")
		}
	}
	lut := &LUT{
		Target:   target,
		Ladder:   append([]float64(nil), ladder...),
		TmaxAt:   make([][]units.Celsius, pump.NumSettings),
		Required: make([]pump.Setting, len(ladder)),
	}
	scaled := make([][]float64, len(fullLoad))
	for li := range fullLoad {
		scaled[li] = make([]float64, len(fullLoad[li]))
	}
	for s := 0; s < pump.NumSettings; s++ {
		lut.TmaxAt[s] = make([]units.Celsius, len(ladder))
		if err := m.SetFlow(pm.PerCavityFlow(pump.Setting(s))); err != nil {
			return nil, err
		}
		for k, lambda := range ladder {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for li := range fullLoad {
				for bi := range fullLoad[li] {
					scaled[li][bi] = fullLoad[li][bi] * lambda
				}
				if err := m.SetLayerPower(li, scaled[li]); err != nil {
					return nil, err
				}
			}
			if err := m.SteadyState(); err != nil {
				return nil, fmt.Errorf("controller: sweep setting %d ladder %g: %w", s, lambda, err)
			}
			lut.TmaxAt[s][k] = m.MaxDieTemp().ToCelsius()
		}
	}
	for k := range ladder {
		req := pump.MaxSetting()
		for s := 0; s < pump.NumSettings; s++ {
			if lut.TmaxAt[s][k] <= target {
				req = pump.Setting(s)
				break
			}
		}
		lut.Required[k] = req
	}
	return lut, nil
}

// invert finds the (fractional) ladder position whose steady Tmax at
// setting s equals t, clamped to the table ends.
func (l *LUT) invert(s pump.Setting, t units.Celsius) float64 {
	curve := l.TmaxAt[s]
	if t <= curve[0] {
		return 0
	}
	n := len(curve)
	if t >= curve[n-1] {
		return float64(n - 1)
	}
	for k := 1; k < n; k++ {
		if t <= curve[k] {
			span := float64(curve[k] - curve[k-1])
			if span <= 0 {
				return float64(k)
			}
			return float64(k-1) + float64(t-curve[k-1])/span
		}
	}
	return float64(n - 1)
}

// tmaxAt interpolates the steady Tmax at setting s for fractional ladder
// position pos.
func (l *LUT) tmaxAt(s pump.Setting, pos float64) units.Celsius {
	n := len(l.Ladder)
	if pos <= 0 {
		return l.TmaxAt[s][0]
	}
	if pos >= float64(n-1) {
		return l.TmaxAt[s][n-1]
	}
	k := int(pos)
	frac := pos - float64(k)
	return l.TmaxAt[s][k] + units.Celsius(frac)*(l.TmaxAt[s][k+1]-l.TmaxAt[s][k])
}

// RequiredFor returns the minimum pump setting that cools the system below
// the target, given a maximum temperature predicted while running at
// setting cur.
func (l *LUT) RequiredFor(predicted units.Celsius, cur pump.Setting) pump.Setting {
	if cur == pump.Off {
		cur = 0
	}
	pos := l.invert(cur, predicted)
	for s := pump.Setting(0); s < pump.NumSettings; s++ {
		if l.tmaxAt(s, pos) <= l.Target {
			return s
		}
	}
	return pump.MaxSetting()
}

// maxLadderFor returns the highest fractional ladder position that setting
// s can hold at or below the target.
func (l *LUT) maxLadderFor(s pump.Setting) float64 {
	curve := l.TmaxAt[s]
	n := len(curve)
	if curve[n-1] <= l.Target {
		return float64(n - 1)
	}
	if curve[0] > l.Target {
		return 0
	}
	for k := 1; k < n; k++ {
		if curve[k] > l.Target {
			span := float64(curve[k] - curve[k-1])
			if span <= 0 {
				return float64(k - 1)
			}
			return float64(k-1) + float64(l.Target-curve[k-1])/span
		}
	}
	return float64(n - 1)
}

// DownBoundary returns the observed temperature (at setting cur) below
// which the load could be held by setting lower; the controller subtracts
// the hysteresis from it before stepping down.
func (l *LUT) DownBoundary(cur, lower pump.Setting) units.Celsius {
	return l.tmaxAt(cur, l.maxLadderFor(lower))
}

// Config tunes the runtime controller.
type Config struct {
	// Target defaults to TargetTemp, Hysteresis to the paper's 2 °C.
	Target     units.Celsius
	Hysteresis units.Celsius
	// FitWindow is the history length used to (re)fit ARMA (samples).
	FitWindow int
	// MinFit is the minimum history before the first fit.
	MinFit int
	// P, Q are the ARMA orders.
	P, Q int
	// SigmaFloor bounds the residual σ used by SPRT from below so a
	// perfectly flat training window does not produce a hair-trigger
	// detector.
	SigmaFloor float64
	// Proactive disables forecasting when false (ablation: a reactive
	// table-lookup controller).
	Proactive bool
	// HysteresisOff disables the down-switch guard (ablation).
	HysteresisOff bool
}

// DefaultConfig returns the paper's controller settings.
func DefaultConfig() Config {
	return Config{
		Target:     TargetTemp,
		Hysteresis: Hysteresis,
		FitWindow:  300,
		MinFit:     60,
		P:          arma.DefaultP,
		Q:          arma.DefaultQ,
		SigmaFloor: 0.15,
		Proactive:  true,
	}
}

// Controller is the runtime flow-rate controller.
type Controller struct {
	LUT *LUT
	Cfg Config

	cur     pump.Setting
	history []float64
	fitter  arma.Fitter
	pred    *arma.Predictor
	det     *sprt.Detector
	detLive bool // det holds a valid configuration
	refits  int
}

// New returns a controller starting at the given pump setting.
func New(lut *LUT, cfg Config, initial pump.Setting) (*Controller, error) {
	if lut == nil {
		return nil, fmt.Errorf("controller: nil LUT")
	}
	if err := pump.Validate(initial); err != nil {
		return nil, err
	}
	if cfg.Target == 0 {
		cfg.Target = TargetTemp
	}
	if cfg.FitWindow <= 0 || cfg.MinFit <= 0 || cfg.MinFit > cfg.FitWindow {
		return nil, fmt.Errorf("controller: invalid fit window %d/%d", cfg.MinFit, cfg.FitWindow)
	}
	return &Controller{LUT: lut, Cfg: cfg, cur: initial}, nil
}

// Setting returns the controller's current pump setting.
func (c *Controller) Setting() pump.Setting { return c.cur }

// Refits returns how many times the ARMA model has been rebuilt.
func (c *Controller) Refits() int { return c.refits }

// PredictorReady reports whether forecasts are live.
func (c *Controller) PredictorReady() bool { return c.pred != nil && c.pred.Warm() }

// Observe feeds the sampled maximum temperature (one per 100 ms tick),
// maintaining the predictor and drift detector.
func (c *Controller) Observe(tmax units.Celsius) {
	v := float64(tmax)
	c.history = append(c.history, v)
	if len(c.history) > c.Cfg.FitWindow {
		// Copy down instead of re-slicing forward: the backing array stays
		// put, so the steady-state append above never reallocates (the
		// sliding window used to walk off the front of its array and buy a
		// fresh one every ~FitWindow ticks).
		n := copy(c.history, c.history[len(c.history)-c.Cfg.FitWindow:])
		c.history = c.history[:n]
	}
	if c.pred == nil {
		if len(c.history) >= c.Cfg.MinFit {
			c.fit()
		}
		return
	}
	c.pred.Observe(v)
	if c.detLive && c.pred.Warm() {
		if c.det.Observe(c.pred.LastError) {
			// Predictor no longer fits the workload: rebuild from the
			// recent window (the paper keeps using the old model until
			// the new one is ready; our fit is synchronous and cheap).
			c.fit()
			c.refits++
		}
	}
}

// fit (re)builds the ARMA model and SPRT detector from history. The
// fitter, predictor and detector are all reused in place, so the refit
// path allocates nothing after the first fit — it runs inside the
// simulator's 0 B/op tick budget.
func (c *Controller) fit() {
	m, err := c.fitter.Fit(c.history, c.Cfg.P, c.Cfg.Q)
	if err != nil {
		// Not enough history or degenerate window: stay reactive.
		return
	}
	if c.pred == nil {
		c.pred = arma.NewPredictor(m)
	} else {
		c.pred.Reset(m)
	}
	// Re-feed recent history so the lag state is current.
	start := len(c.history) - 4*(c.Cfg.P+c.Cfg.Q)
	if start < 0 {
		start = 0
	}
	for _, v := range c.history[start:] {
		c.pred.Observe(v)
	}
	sigma := math.Max(m.Sigma, c.Cfg.SigmaFloor)
	if c.det == nil {
		c.det = &sprt.Detector{}
	}
	c.detLive = c.det.Reinit(sprt.DefaultConfig(sigma)) == nil
}

// Predicted returns the controller's working temperature estimate: the
// ForecastSteps-ahead ARMA forecast when available, otherwise the latest
// observation.
func (c *Controller) Predicted() units.Celsius {
	if len(c.history) == 0 {
		return 0
	}
	last := units.Celsius(c.history[len(c.history)-1])
	if !c.Cfg.Proactive || c.pred == nil || !c.pred.Warm() {
		return last
	}
	return units.Celsius(c.pred.Forecast(ForecastSteps))
}

// Decide returns the pump setting for the next interval and records it as
// current. Upward switches apply immediately; downward switches respect
// the hysteresis guard band below the inter-setting boundary.
func (c *Controller) Decide() pump.Setting {
	pred := c.Predicted()
	req := c.LUT.RequiredFor(pred, c.cur)
	// Reactive guard: a mean-reverting forecast can sit below a live
	// excursion; the guarantee takes whichever demands more flow.
	if len(c.history) > 0 {
		obs := units.Celsius(c.history[len(c.history)-1])
		if r := c.LUT.RequiredFor(obs, c.cur); r > req {
			req = r
			if obs > pred {
				pred = obs
			}
		}
	}
	switch {
	case req > c.cur:
		c.cur = req
	case req < c.cur:
		if c.Cfg.HysteresisOff {
			c.cur = req
			break
		}
		// Step down one level at a time, only once safely below the
		// boundary.
		next := c.cur - 1
		boundary := c.LUT.DownBoundary(c.cur, next)
		if pred <= boundary-c.Cfg.Hysteresis {
			c.cur = next
		}
	}
	return c.cur
}
