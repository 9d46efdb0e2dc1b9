package rcnet

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/units"
)

func TestTempsCopyDoesNotAlias(t *testing.T) {
	m := testModel(t, true)
	snap := m.TempsCopy()
	if len(snap) != len(m.Temps()) {
		t.Fatalf("TempsCopy length %d, want %d", len(snap), len(m.Temps()))
	}
	for i := range snap {
		if snap[i] != m.Temps()[i] {
			t.Fatalf("TempsCopy differs at %d before mutation", i)
		}
	}
	snap[0] += 100
	if m.Temps()[0] == snap[0] {
		t.Error("mutating the copy reached the model's internal state")
	}
	before := snap[1]
	m.SetUniformTemp(units.Celsius(99).ToKelvin())
	if snap[1] != before {
		t.Error("model mutation reached the copy")
	}
}

// TestStepAllocFree pins the per-tick fast path: after the first step of
// a configuration, the transient solve must not allocate — no matrix
// copy, no coolant-march buffers and no factorization (the cached factors
// are reused, so Step is two triangular sweeps).
func TestStepAllocFree(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t1Power(t, m)
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0.1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %v objects per tick, want 0", allocs)
	}
}
