package controller

import (
	"context"
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/units"
)

// fullLoadMap builds the reference full-load power map used by LUT sweeps.
func fullLoadMap(s *floorplan.Stack) [][]float64 {
	out := make([][]float64, len(s.Layers))
	for li, layer := range s.Layers {
		out[li] = make([]float64, len(layer.Blocks))
		for bi, b := range layer.Blocks {
			switch b.Kind {
			case floorplan.KindCore:
				out[li][bi] = 4.2 // active + leakage at ~80 °C
			case floorplan.KindL2:
				out[li][bi] = 1.6
			case floorplan.KindCrossbar:
				out[li][bi] = 5
			case floorplan.KindMemCtrl:
				out[li][bi] = 1.2
			}
		}
	}
	return out
}

func buildLUT(t *testing.T) (*LUT, *rcnet.Model, *pump.Pump) {
	t.Helper()
	st := floorplan.NewT1Stack2(true)
	g, err := grid.Build(st, grid.DefaultParams(23, 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rcnet.New(g, rcnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := pump.New(st.NumCavities())
	if err != nil {
		t.Fatal(err)
	}
	lut, err := BuildLUT(context.Background(), m, pm, fullLoadMap(st), TargetTemp, DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	return lut, m, pm
}

// TestBuildLUTFactorsOnce pins the sweep's use of the thermal model's
// factorization cache: every non-zero pump setting gives the same
// steady-state system matrix, so 5 pump settings × 15 ladder points of
// steady-state solves must factor the system exactly once.
func TestBuildLUTFactorsOnce(t *testing.T) {
	_, m, _ := buildLUT(t)
	if got := m.Factorizations(); got != 1 {
		t.Errorf("BuildLUT performed %d factorizations, want 1", got)
	}
}

func TestBuildLUTValidation(t *testing.T) {
	_, m, pm := buildLUT(t)
	fl := fullLoadMap(m.Grid.Stack)
	if _, err := BuildLUT(context.Background(), m, pm, fl, TargetTemp, []float64{1}); err == nil {
		t.Error("expected error for single-point ladder")
	}
	if _, err := BuildLUT(context.Background(), m, pm, fl, TargetTemp, []float64{1, 0.5}); err == nil {
		t.Error("expected error for non-increasing ladder")
	}
}

func TestLUTMonotoneInPower(t *testing.T) {
	lut, _, _ := buildLUT(t)
	for s := 0; s < pump.NumSettings; s++ {
		for k := 1; k < len(lut.Ladder); k++ {
			if lut.TmaxAt[s][k] < lut.TmaxAt[s][k-1] {
				t.Errorf("setting %d: Tmax falls with power at ladder %d", s, k)
			}
		}
	}
}

func TestLUTMonotoneInFlow(t *testing.T) {
	lut, _, _ := buildLUT(t)
	for k := range lut.Ladder {
		for s := 1; s < pump.NumSettings; s++ {
			// Tolerance covers fixed-point solver noise at near-zero power.
			if lut.TmaxAt[s][k] > lut.TmaxAt[s-1][k]+0.01 {
				t.Errorf("ladder %d: Tmax rises with flow at setting %d", k, s)
			}
		}
	}
}

func TestLUTRequiredMonotone(t *testing.T) {
	lut, _, _ := buildLUT(t)
	for k := 1; k < len(lut.Required); k++ {
		if lut.Required[k] < lut.Required[k-1] {
			t.Errorf("required setting falls with power at ladder %d", k)
		}
	}
}

func TestRequiredForGuaranteesTarget(t *testing.T) {
	lut, _, _ := buildLUT(t)
	// For every ladder point and current setting, the returned setting
	// must cool that load to the target (or be the max setting).
	for s := pump.Setting(0); s < pump.NumSettings; s++ {
		for k, tm := range lut.TmaxAt[s] {
			req := lut.RequiredFor(tm, s)
			if req == pump.MaxSetting() {
				continue
			}
			if lut.TmaxAt[req][k] > lut.Target+0.01 {
				t.Errorf("setting %v ladder %d: required %v leaves Tmax %v > target",
					s, k, req, lut.TmaxAt[req][k])
			}
		}
	}
}

func TestRequiredForColdReadsMinSetting(t *testing.T) {
	lut, _, _ := buildLUT(t)
	if got := lut.RequiredFor(65, 0); got != 0 {
		t.Errorf("cold system requires setting %v, want 0", got)
	}
}

func TestRequiredForHotReadsHighSetting(t *testing.T) {
	lut, _, _ := buildLUT(t)
	hot := lut.TmaxAt[0][len(lut.Ladder)-1] + 5
	if got := lut.RequiredFor(hot, 0); got != pump.MaxSetting() {
		t.Errorf("overload requires setting %v, want max", got)
	}
}

func TestDownBoundaryAboveTargetRegion(t *testing.T) {
	lut, _, _ := buildLUT(t)
	for s := pump.Setting(1); s < pump.NumSettings; s++ {
		b := lut.DownBoundary(s, s-1)
		if b < 60 || b > 100 {
			t.Errorf("boundary %v→%v = %v out of plausible range", s, s-1, b)
		}
	}
}

func TestControllerRaisesOnHotForecast(t *testing.T) {
	lut, _, _ := buildLUT(t)
	c, err := New(lut, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Feed a hot temperature without predictor history: reactive mode.
	c.Observe(lut.TmaxAt[0][len(lut.Ladder)-1])
	got := c.Decide()
	if got == 0 {
		t.Error("controller stayed at minimum setting under overload")
	}
}

func TestControllerHysteresisBlocksImmediateDown(t *testing.T) {
	lut, _, _ := buildLUT(t)
	c, err := New(lut, DefaultConfig(), pump.MaxSetting())
	if err != nil {
		t.Fatal(err)
	}
	// Temperature just below the down boundary but within the 2 °C band:
	// the controller must hold.
	next := pump.MaxSetting() - 1
	boundary := lut.DownBoundary(pump.MaxSetting(), next)
	c.Observe(boundary - 1) // within hysteresis band
	if got := c.Decide(); got != pump.MaxSetting() {
		t.Errorf("controller dropped to %v within hysteresis band", got)
	}
	// Well below the band: may step down.
	c.Observe(boundary - 10)
	if got := c.Decide(); got != next {
		t.Errorf("controller at %v, want one step down to %v", got, next)
	}
}

func TestControllerStepsDownOneLevelAtATime(t *testing.T) {
	lut, _, _ := buildLUT(t)
	c, _ := New(lut, DefaultConfig(), pump.MaxSetting())
	c.Observe(50) // stone cold
	first := c.Decide()
	if first != pump.MaxSetting()-1 {
		t.Errorf("first down-step to %v, want single step", first)
	}
}

func TestControllerHysteresisOffAblation(t *testing.T) {
	lut, _, _ := buildLUT(t)
	cfg := DefaultConfig()
	cfg.HysteresisOff = true
	c, _ := New(lut, cfg, pump.MaxSetting())
	c.Observe(50)
	if got := c.Decide(); got != 0 {
		t.Errorf("hysteresis-off controller at %v, want immediate drop to 0", got)
	}
}

func TestControllerPredictorLifecycle(t *testing.T) {
	lut, _, _ := buildLUT(t)
	c, _ := New(lut, DefaultConfig(), 0)
	if c.PredictorReady() {
		t.Error("predictor ready before any data")
	}
	// Feed a slowly varying trace long enough to trigger the first fit.
	for i := 0; i < 120; i++ {
		c.Observe(units.Celsius(74 + 2*math.Sin(float64(i)/40)))
	}
	if !c.PredictorReady() {
		t.Error("predictor not ready after 120 samples")
	}
	p := c.Predicted()
	if p < 70 || p > 80 {
		t.Errorf("prediction %v outside trace range", p)
	}
}

func TestControllerRefitsOnWorkloadChange(t *testing.T) {
	lut, _, _ := buildLUT(t)
	c, _ := New(lut, DefaultConfig(), 0)
	for i := 0; i < 150; i++ {
		c.Observe(72)
	}
	// Abrupt sustained change (day/night shift).
	for i := 0; i < 100; i++ {
		c.Observe(79)
	}
	if c.Refits() == 0 {
		t.Error("SPRT did not trigger a refit on a sustained trend change")
	}
}

func TestNewValidation(t *testing.T) {
	lut, _, _ := buildLUT(t)
	if _, err := New(nil, DefaultConfig(), 0); err == nil {
		t.Error("expected error for nil LUT")
	}
	if _, err := New(lut, DefaultConfig(), pump.Setting(9)); err == nil {
		t.Error("expected error for invalid setting")
	}
	bad := DefaultConfig()
	bad.MinFit = 0
	if _, err := New(lut, bad, 0); err == nil {
		t.Error("expected error for bad fit window")
	}
}

func TestBuildWeights(t *testing.T) {
	_, m, pm := buildLUT(t)
	w, err := BuildWeights(context.Background(), m, pm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Base) != 8 {
		t.Fatalf("weights for %d cores, want 8", len(w.Base))
	}
	mean := 0.0
	for _, b := range w.Base {
		if b <= 0 {
			t.Errorf("non-positive base weight %v", b)
		}
		mean += b
	}
	mean /= float64(len(w.Base))
	if units.RelativeError(mean, 1) > 1e-9 {
		t.Errorf("base weights mean = %v, want 1", mean)
	}
	// The weights must actually differ across positions (thermal
	// asymmetry is the point).
	lo, hi := w.Base[0], w.Base[0]
	for _, b := range w.Base {
		lo = math.Min(lo, b)
		hi = math.Max(hi, b)
	}
	if hi-lo < 1e-4 {
		t.Errorf("weights essentially uniform (%v..%v)", lo, hi)
	}
}

func TestBuildWeightsValidation(t *testing.T) {
	_, m, pm := buildLUT(t)
	if _, err := BuildWeights(context.Background(), m, pm, 0); err == nil {
		t.Error("expected error for zero core power")
	}
}

func TestWeightLookupGammaScaling(t *testing.T) {
	_, m, pm := buildLUT(t)
	w, err := BuildWeights(context.Background(), m, pm, 3)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(ws []float64) float64 {
		lo, hi := ws[0], ws[0]
		for _, v := range ws {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	cool := spread(w.Lookup(70))
	hot := spread(w.Lookup(90))
	if hot <= cool {
		t.Errorf("hot-range weights (%v) should spread more than cool (%v)", hot, cool)
	}
}

// TestRefitAllocationFree pins the online refit path's garbage budget:
// once the fitter's scratch has grown to the history window, a full
// rebuild — Hannan–Rissanen two-stage fit, predictor reset + lag
// re-feed, SPRT reconfiguration — performs zero allocations, and so does
// the steady-state Observe that hosts it. Refits happen mid-run whenever
// the SPRT trips, so this is part of the simulator's 0 B/op tick budget.
func TestRefitAllocationFree(t *testing.T) {
	lut, _, _ := buildLUT(t)
	c, err := New(lut, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tick := 0
	observe := func() {
		c.Observe(units.Celsius(70 + 3*math.Sin(float64(tick)/7)))
		tick++
	}
	// Fill past the sliding window so history and the fitter buffers are
	// at their steady-state sizes, then warm the refit path once.
	for tick < c.Cfg.FitWindow+c.Cfg.MinFit {
		observe()
	}
	if c.pred == nil {
		t.Fatal("predictor never fitted")
	}
	c.fit()
	if allocs := testing.AllocsPerRun(50, func() {
		observe()
		c.fit()
	}); allocs != 0 {
		t.Errorf("refit allocates %.1f objects, want 0", allocs)
	}
}
