package rcnet

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/pump"
	"repro/internal/units"
)

// testModel builds a coarse 2-layer model.
func testModel(t *testing.T, liquid bool) *Model {
	t.Helper()
	g, err := grid.Build(floorplan.NewT1Stack2(liquid), grid.DefaultParams(23, 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// t1Power installs a uniform full-load T1 power map: 3 W cores, 1.28 W L2s,
// 6 W crossbar strip split between layers, 1 W memory controllers.
func t1Power(t *testing.T, m *Model) {
	t.Helper()
	for li, layer := range m.Grid.Stack.Layers {
		p := make([]float64, len(layer.Blocks))
		for bi, b := range layer.Blocks {
			switch b.Kind {
			case floorplan.KindCore:
				p[bi] = 3
			case floorplan.KindL2:
				p[bi] = 1.28
			case floorplan.KindCrossbar:
				p[bi] = 3
			case floorplan.KindMemCtrl:
				p[bi] = 1
			}
		}
		if err := m.SetLayerPower(li, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLiquidSteadyStateEnergyBalance(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0.6); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	in := float64(m.TotalPower())
	out := float64(m.HeatRemovedByCoolant())
	if units.RelativeError(out, in) > 0.02 {
		t.Errorf("energy balance: in %v W, coolant removes %v W", in, out)
	}
}

func TestLiquidSteadyStateAboveInlet(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0.6); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	inlet := float64(m.Cfg.CoolantInlet)
	for i, temp := range m.Temps() {
		if temp < inlet-1e-6 {
			t.Fatalf("node %d at %v K below inlet %v K", i, temp, inlet)
		}
	}
	tmax := float64(m.MaxDieTemp())
	if tmax <= inlet || tmax > inlet+40 {
		t.Errorf("Tmax = %v K for inlet %v K: outside plausible band", tmax, inlet)
	}
}

func TestHigherFlowLowersSteadyTmax(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	p, err := pump.New(3)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for s := pump.Setting(0); s < pump.NumSettings; s++ {
		if err := m.SetFlow(p.PerCavityFlow(s)); err != nil {
			t.Fatal(err)
		}
		if err := m.SteadyState(); err != nil {
			t.Fatal(err)
		}
		tm := float64(m.MaxDieTemp())
		if tm >= prev+1e-9 {
			t.Errorf("setting %d: Tmax %v K not below previous %v K", s, tm, prev)
		}
		prev = tm
	}
}

func TestZeroPowerSteadyStateIsInlet(t *testing.T) {
	m := testModel(t, true)
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	for i, temp := range m.Temps() {
		if math.Abs(temp-float64(m.Cfg.CoolantInlet)) > 1e-3 {
			t.Fatalf("node %d at %v K, want inlet %v", i, temp, m.Cfg.CoolantInlet)
		}
	}
}

func TestAirSteadyStateEnergyBalance(t *testing.T) {
	m := testModel(t, false)
	t1Power(t, m)
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	// At steady state the sink-to-ambient flow must equal injected power.
	sinkT := m.Temps()[m.net.sinkNode]
	out := (sinkT - float64(m.Cfg.AmbientAir)) / m.Cfg.SinkConvectionR
	in := float64(m.TotalPower())
	if units.RelativeError(out, in) > 0.02 {
		t.Errorf("air energy balance: in %v W, sink passes %v W", in, out)
	}
}

func TestAirHotterThanLiquidAtFullLoad(t *testing.T) {
	// At full load (active power plus leakage-level extra), the
	// air-cooled package runs hotter than liquid cooling at maximum
	// flow. Note the converse does not hold at light load: with the
	// warm-water inlet (71 °C) a nearly idle liquid-cooled stack floats
	// at the inlet temperature, above what the 45 °C-ambient air package
	// reaches — that asymmetry is inherent to hot-water cooling.
	ml := testModel(t, true)
	ma := testModel(t, false)
	heavy := func(m *Model) {
		for li, layer := range m.Grid.Stack.Layers {
			p := make([]float64, len(layer.Blocks))
			for bi, b := range layer.Blocks {
				switch b.Kind {
				case floorplan.KindCore:
					p[bi] = 4.4
				case floorplan.KindL2:
					p[bi] = 1.7
				case floorplan.KindCrossbar:
					p[bi] = 5
				case floorplan.KindMemCtrl:
					p[bi] = 1.3
				}
			}
			if err := m.SetLayerPower(li, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	heavy(ml)
	heavy(ma)
	if err := ml.SetFlow(1.0); err != nil {
		t.Fatal(err)
	}
	if err := ml.SteadyState(); err != nil {
		t.Fatal(err)
	}
	if err := ma.SteadyState(); err != nil {
		t.Fatal(err)
	}
	if ma.MaxDieTemp() <= ml.MaxDieTemp() {
		t.Errorf("air Tmax %v should exceed liquid-max Tmax %v",
			ma.MaxDieTemp().ToCelsius(), ml.MaxDieTemp().ToCelsius())
	}
}

func TestTransientApproachesSteadyState(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0.6); err != nil {
		t.Fatal(err)
	}
	// Long transient from the initial temperature.
	for i := 0; i < 200; i++ {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	transientMax := float64(m.MaxDieTemp())

	ref := testModel(t, true)
	t1Power(t, ref)
	if err := ref.SetFlow(0.6); err != nil {
		t.Fatal(err)
	}
	if err := ref.SteadyState(); err != nil {
		t.Fatal(err)
	}
	steadyMax := float64(ref.MaxDieTemp())
	if math.Abs(transientMax-steadyMax) > 0.5 {
		t.Errorf("transient Tmax %v K vs steady %v K", transientMax, steadyMax)
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0.6); err != nil {
		t.Fatal(err)
	}
	m.SetUniformTemp(m.Cfg.CoolantInlet)
	prev := float64(m.MaxDieTemp())
	for i := 0; i < 20; i++ {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
		cur := float64(m.MaxDieTemp())
		if cur < prev-1e-9 {
			t.Fatalf("step %d: warming Tmax fell from %v to %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestStepRejectsBadDt(t *testing.T) {
	m := testModel(t, true)
	if err := m.Step(0); err == nil {
		t.Error("expected error for dt=0")
	}
	if err := m.Step(-1); err == nil {
		t.Error("expected error for negative dt")
	}
}

func TestSetFlowValidation(t *testing.T) {
	m := testModel(t, true)
	if err := m.SetFlow(-0.1); err == nil {
		t.Error("expected error for negative flow")
	}
	ma := testModel(t, false)
	if err := ma.SetFlow(0.5); err == nil {
		t.Error("expected error for flow on air-cooled model")
	}
	if err := ma.SetFlow(0); err != nil {
		t.Errorf("zero flow on air model should be a no-op: %v", err)
	}
}

func TestSteadyStateNeedsFlowWhenLiquid(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err == nil {
		t.Error("expected error: liquid stack with zero flow has no heat path")
	}
}

func TestCoreHotterThanCache(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0.4); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	s := m.Grid.Stack
	var coreMean, cacheMean float64
	var nc, nl int
	for li, layer := range s.Layers {
		for bi, b := range layer.Blocks {
			switch b.Kind {
			case floorplan.KindCore:
				coreMean += float64(m.BlockTemp(li, bi))
				nc++
			case floorplan.KindL2:
				cacheMean += float64(m.BlockTemp(li, bi))
				nl++
			}
		}
	}
	coreMean /= float64(nc)
	cacheMean /= float64(nl)
	if coreMean <= cacheMean {
		t.Errorf("cores (%v K) should run hotter than caches (%v K)", coreMean, cacheMean)
	}
}

func TestBlockMaxAtLeastMean(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0.4); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	for li, layer := range m.Grid.Stack.Layers {
		for bi := range layer.Blocks {
			if m.BlockMaxTemp(li, bi) < m.BlockTemp(li, bi) {
				t.Errorf("layer %d block %d: max below mean", li, bi)
			}
		}
	}
}

func TestCoolantOutletAboveInlet(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0.3); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	for i := range m.Grid.CavitySlabs() {
		ci := m.Grid.CavitySlabs()[i]
		out := m.CoolantOutletTemp(ci)
		if out < m.Cfg.CoolantInlet {
			t.Errorf("cavity %d outlet %v below inlet", ci, out)
		}
	}
}

func TestUnbalancedPowerCreatesGradient(t *testing.T) {
	// Power only the left half cores; the right side must be cooler.
	m := testModel(t, true)
	layer := m.Grid.Stack.Layers[0]
	p := make([]float64, len(layer.Blocks))
	for bi, b := range layer.Blocks {
		if b.Kind == floorplan.KindCore && b.X < m.Grid.Stack.Width/2 {
			p[bi] = 4
		}
	}
	if err := m.SetLayerPower(0, p); err != nil {
		t.Fatal(err)
	}
	if err := m.SetFlow(0.3); err != nil {
		t.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	var hot, cold float64
	var nh, ncold int
	for bi, b := range layer.Blocks {
		if b.Kind != floorplan.KindCore {
			continue
		}
		if p[bi] > 0 {
			hot += float64(m.BlockTemp(0, bi))
			nh++
		} else {
			cold += float64(m.BlockTemp(0, bi))
			ncold++
		}
	}
	if hot/float64(nh) <= cold/float64(ncold)+0.1 {
		t.Errorf("powered cores (%v) should be hotter than idle (%v)",
			hot/float64(nh), cold/float64(ncold))
	}
}

func Test4LayerHotterThan2Layer(t *testing.T) {
	// Same per-core power, same per-cavity flow: the 4-layer stack
	// carries twice the power through only 5/3 the cavities, so it must
	// run hotter (the paper's motivation for layer-count-aware control).
	build := func(s *floorplan.Stack) *Model {
		g, err := grid.Build(s, grid.DefaultParams(23, 20))
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m2 := build(floorplan.NewT1Stack2(true))
	m4 := build(floorplan.NewT1Stack4(true))
	t1Power(t, m2)
	t1Power(t, m4)
	for _, m := range []*Model{m2, m4} {
		if err := m.SetFlow(0.4); err != nil {
			t.Fatal(err)
		}
		if err := m.SteadyState(); err != nil {
			t.Fatal(err)
		}
	}
	if m4.MaxDieTemp() <= m2.MaxDieTemp() {
		t.Errorf("4-layer Tmax %v should exceed 2-layer %v",
			m4.MaxDieTemp().ToCelsius(), m2.MaxDieTemp().ToCelsius())
	}
}

func TestGridRefinementConvergence(t *testing.T) {
	// Tmax should change only modestly between successive refinements.
	var prev float64
	for i, dims := range [][2]int{{23, 20}, {46, 40}} {
		g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(dims[0], dims[1]))
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		t1Power(t, m)
		if err := m.SetFlow(0.6); err != nil {
			t.Fatal(err)
		}
		if err := m.SteadyState(); err != nil {
			t.Fatal(err)
		}
		cur := float64(m.MaxDieTemp())
		if i > 0 {
			if math.Abs(cur-prev) > 1.5 {
				t.Errorf("refinement moved Tmax from %v to %v K", prev, cur)
			}
		}
		prev = cur
	}
}
