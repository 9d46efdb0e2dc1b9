package rcnet

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/testutil"
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

// TestStepAllocFree pins the per-tick fast path on both kernel families:
// after the first step of a configuration, the transient solve must not
// allocate — no matrix copy, no coolant-march buffers and no
// factorization (the cached factors are reused, so Step is two
// triangular sweeps). The 2-layer 12×10 model runs the scalar kernels;
// the 4-layer 23×20 one (n = 4140) the supernodal ones, whose subtree
// tasks fork onto goroutines above GOMAXPROCS 1, so it is measured at
// 1, 2 and 8 (testing.AllocsPerRun would pin GOMAXPROCS to 1; under the
// race detector only at 1).
func TestStepAllocFree(t *testing.T) {
	for _, c := range []struct {
		name     string
		newStack func(liquid bool) *floorplan.Stack
		nx, ny   int
		super    bool
	}{
		{"scalar", floorplan.NewT1Stack2, 12, 10, false},
		{"supernodal", floorplan.NewT1Stack4, 23, 20, true},
	} {
		g, err := grid.Build(c.newStack(true), grid.DefaultParams(c.nx, c.ny))
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
		if _, _, active := m.SupernodeStats(); active != c.super {
			t.Fatalf("%s: supernodal kernels active = %v", c.name, active)
		}
		step := func() {
			if err := m.Step(0.1); err != nil {
				t.Fatal(err)
			}
		}
		levels := testutil.ProcsLevels
		if testutil.RaceEnabled {
			levels = levels[:1] // a forked level's warm calls take minutes there
		}
		for _, p := range levels {
			if allocs := testutil.AllocsPerRunAt(p, 1000, 100, step); allocs != 0 {
				t.Errorf("%s GOMAXPROCS=%d: Step allocates %v objects per tick, want 0", c.name, p, allocs)
			}
		}
	}
}
