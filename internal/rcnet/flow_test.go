package rcnet

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestRuntimeFlowChangeTransient(t *testing.T) {
	// Raising the flow mid-run must cool the system (the controller's
	// whole premise); dropping it must heat it back up.
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0.2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	lowFlow := float64(m.MaxDieTemp())
	if err := m.SetFlow(1.0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	highFlow := float64(m.MaxDieTemp())
	if highFlow >= lowFlow {
		t.Errorf("raising flow did not cool: %v -> %v", lowFlow, highFlow)
	}
	if err := m.SetFlow(0.2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	back := float64(m.MaxDieTemp())
	if math.Abs(back-lowFlow) > 0.3 {
		t.Errorf("flow cycle not reversible: %v vs %v", back, lowFlow)
	}
}

func TestZeroFlowTransientHeatsUp(t *testing.T) {
	// With the pump off, a liquid-cooled stack has no heat sink: the
	// transient must warm monotonically without any steady limit nearby.
	m := testModel(t, true)
	t1Power(t, m)
	if err := m.SetFlow(0); err != nil {
		t.Fatal(err)
	}
	m.SetUniformTemp(units.Celsius(70).ToKelvin())
	start := float64(m.MaxDieTemp())
	for i := 0; i < 50; i++ {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	if float64(m.MaxDieTemp()) <= start+1 {
		t.Errorf("pump-off stack failed to heat: %v -> %v", start, m.MaxDieTemp())
	}
}

func TestHeatRemovedMatchesPowerAtSteady(t *testing.T) {
	m := testModel(t, true)
	t1Power(t, m)
	for _, flow := range []units.LitersPerMinute{0.2, 0.6, 1.0} {
		if err := m.SetFlow(flow); err != nil {
			t.Fatal(err)
		}
		if err := m.SteadyState(); err != nil {
			t.Fatal(err)
		}
		in, out := float64(m.TotalPower()), float64(m.HeatRemovedByCoolant())
		if units.RelativeError(out, in) > 0.02 {
			t.Errorf("flow %v: removed %v of %v W", flow, out, in)
		}
	}
}

func TestCavityOutletOrderingWithFlow(t *testing.T) {
	// Lower flow ⇒ hotter outlet (same heat into less coolant).
	m := testModel(t, true)
	t1Power(t, m)
	outletAt := func(flow units.LitersPerMinute) float64 {
		if err := m.SetFlow(flow); err != nil {
			t.Fatal(err)
		}
		if err := m.SteadyState(); err != nil {
			t.Fatal(err)
		}
		mid := m.Grid.CavitySlabs()[1]
		return float64(m.CoolantOutletTemp(mid))
	}
	low := outletAt(0.2)
	high := outletAt(1.0)
	if low <= high {
		t.Errorf("outlet at low flow (%v) should exceed high flow (%v)", low, high)
	}
}

func TestSinkNodeTransientSlow(t *testing.T) {
	// The 140 J/K package capacitance makes the air-cooled response much
	// slower than the liquid transient: after 1 s at full power the sink
	// must still be far from steady.
	m := testModel(t, false)
	t1Power(t, m)
	m.SetUniformTemp(m.Cfg.AmbientAir)
	for i := 0; i < 10; i++ {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	after1s := float64(m.MaxDieTemp())
	if err := m.SteadyState(); err != nil {
		t.Fatal(err)
	}
	steady := float64(m.MaxDieTemp())
	if steady-after1s < 3 {
		t.Errorf("air package reached steady too fast: 1 s %v vs steady %v", after1s, steady)
	}
}

func TestNumNodesAccounting(t *testing.T) {
	ml := testModel(t, true)
	// 5 slabs × 23×20 cells.
	if got := ml.NumNodes(); got != 5*23*20 {
		t.Errorf("liquid nodes = %d, want %d", got, 5*23*20)
	}
	ma := testModel(t, false)
	// 3 slabs + 1 sink node.
	if got := ma.NumNodes(); got != 3*23*20+1 {
		t.Errorf("air nodes = %d, want %d", got, 3*23*20+1)
	}
}
