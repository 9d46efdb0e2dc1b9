package rcnet

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/microchannel"
	"repro/internal/units"
)

// Analytic cross-checks: closed-form solutions the discretized network
// must reproduce.

// TestAnalyticAirPackageSeriesResistance checks the steady rise of a
// uniformly powered air-cooled stack against the hand-computed series
// thermal resistance of the vertical path (uniform power makes lateral
// conduction irrelevant away from edges, and the sink node equalizes
// everything).
func TestAnalyticAirPackageSeriesResistance(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(false), grid.DefaultParams(23, 20))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform power density over every block: total P.
	const total = 30.0
	area := float64(g.Stack.Width) * float64(g.Stack.Height)
	for li, layer := range g.Stack.Layers {
		p := make([]float64, len(layer.Blocks))
		for bi, b := range layer.Blocks {
			p[bi] = total / 2 * float64(b.Area()) / area
		}
		if err := m.SetLayerPower(li, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}

	// Analytic: sink node sits at ambient + P·Rconv; the top die sits a
	// further P·(spread + BEOL)/A + P/2·(die/2)/(k·A)… dominated by the
	// first two terms. Compare the sink temperature exactly and the top
	// die within the conduction slack.
	sinkWant := float64(cfg.AmbientAir) + total*cfg.SinkConvectionR
	sinkGot := m.Temps()[m.net.sinkNode]
	if math.Abs(sinkGot-sinkWant) > 0.05 {
		t.Errorf("sink temperature %v, want %v", sinkGot, sinkWant)
	}

	topRise := total * (cfg.SinkSpreadResistivity + microchannel.RthBEOL) / area
	topWant := sinkWant + topRise
	// Mean of the top die (layer 1).
	mean := 0.0
	for bi := range g.Stack.Layers[1].Blocks {
		mean += float64(m.BlockTemp(1, bi))
	}
	mean /= float64(len(g.Stack.Layers[1].Blocks))
	if math.Abs(mean-topWant) > 0.5 {
		t.Errorf("top die mean %v K, want ≈%v K", mean, topWant)
	}
}

// TestAnalyticCoolantEnthalpyRise checks the outlet temperature of a
// uniformly loaded liquid stack against Q = ṁ·cp·ΔT.
func TestAnalyticCoolantEnthalpyRise(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(23, 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const total = 36.0
	area := float64(g.Stack.Width) * float64(g.Stack.Height)
	for li, layer := range g.Stack.Layers {
		p := make([]float64, len(layer.Blocks))
		for bi, b := range layer.Blocks {
			p[bi] = total / 2 * float64(b.Area()) / area
		}
		if err := m.SetLayerPower(li, p); err != nil {
			t.Fatal(err)
		}
	}
	flow := units.LitersPerMinute(0.3)
	if err := m.SetFlow(flow); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	// Total transport: 3 cavities at 0.3 l/min each.
	capacity := microchannel.CoolantDensity * microchannel.CoolantHeatCapacity *
		3 * float64(flow.ToSI())
	wantRise := total / capacity
	// Flow-weighted mean outlet rise across cavities.
	riseSum, n := 0.0, 0
	for _, ci := range g.CavitySlabs() {
		riseSum += float64(m.CoolantOutletTemp(ci)) - float64(m.Cfg.CoolantInlet)
		n++
	}
	gotRise := riseSum / float64(n) * 1 // mean across equal-flow cavities
	// The outlet probe reads the boundary node (log-mean segment value),
	// so allow a modest tolerance.
	if math.Abs(gotRise-wantRise) > 0.4*wantRise+0.05 {
		t.Errorf("mean outlet rise %v K, want ≈%v K", gotRise, wantRise)
	}
}

// TestAnalyticThermalTimeConstant checks the transient response order:
// the die-to-coolant RC time constant is far below the 100 ms tick, so a
// power step must settle essentially within a couple of ticks for a
// liquid stack.
func TestAnalyticThermalTimeConstant(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetFlow(0.6); err != nil {
		t.Fatal(err)
	}
	// Settle at zero power.
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	// Step to full power.
	for li, layer := range g.Stack.Layers {
		p := make([]float64, len(layer.Blocks))
		for bi, b := range layer.Blocks {
			if b.Kind == floorplan.KindCore {
				p[bi] = 3
			}
		}
		if err := m.SetLayerPower(li, p); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for li, layer := range g.Stack.Layers {
		p := make([]float64, len(layer.Blocks))
		for bi, b := range layer.Blocks {
			if b.Kind == floorplan.KindCore {
				p[bi] = 3
			}
		}
		if err := ref.SetLayerPower(li, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.SetFlow(0.6); err != nil {
		t.Fatal(err)
	}
	if err := ref.SteadyState(); err != nil {
		t.Fatal(err)
	}
	target := float64(ref.MaxDieTemp())
	start := float64(m.MaxDieTemp())
	for i := 0; i < 5; i++ {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	after := float64(m.MaxDieTemp())
	// Paper: "the thermal time constant on a 3D system like ours is
	// typically less than 100 ms" — after 500 ms we must have covered
	// ≥90 % of the step.
	frac := (after - start) / (target - start)
	if frac < 0.9 {
		t.Errorf("after 0.5 s only %.0f%% of the thermal step covered (%v -> %v, target %v)",
			frac*100, start, after, target)
	}
}
