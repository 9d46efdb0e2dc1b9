package rcnet

import (
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/units"
)

func buildKernelPair(t *testing.T, liquid bool, nx, ny int) (super, scalar *Model) {
	t.Helper()
	mk := func(solver SolverKind) *Model {
		stack := floorplan.NewT1Stack2(liquid)
		g, err := grid.Build(stack, grid.DefaultParams(nx, ny))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Solver = solver
		m, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return mk(SolverSupernodal), mk(SolverScalar)
}

// TestSupernodalMatchesScalarEndToEnd is the end-to-end kernel-equivalence
// property: across liquid- and air-cooled stacks, random power maps,
// random flow switches and both test grid resolutions, transient
// trajectories and steady states computed through the dense-panel kernels
// match the scalar-kernel reference within 1e-6 K. (Both sides are exact
// direct solves; the gap is pure floating-point reassociation, orders of
// magnitude below the bound.)
func TestSupernodalMatchesScalarEndToEnd(t *testing.T) {
	grids := [][2]int{{12, 10}, {23, 20}}
	for _, liquid := range []bool{true, false} {
		for _, dims := range grids {
			ms, mc := buildKernelPair(t, liquid, dims[0], dims[1])
			rng := rand.New(rand.NewSource(int64(dims[0]) + 57*int64(dims[1])))
			setPower := func(m *Model, seed int64) {
				r := rand.New(rand.NewSource(seed))
				for li, layer := range m.Grid.Stack.Layers {
					p := make([]float64, len(layer.Blocks))
					for bi := range p {
						p[bi] = 4 * r.Float64()
					}
					if err := m.SetLayerPower(li, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			for step := 0; step < 20; step++ {
				if step%5 == 0 {
					seed := rng.Int63()
					setPower(ms, seed)
					setPower(mc, seed)
					if liquid {
						flow := units.LitersPerMinute(0.1 + 0.9*rng.Float64())
						if err := ms.SetFlow(flow); err != nil {
							t.Fatal(err)
						}
						if err := mc.SetFlow(flow); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := ms.Step(0.1); err != nil {
					t.Fatal(err)
				}
				if err := mc.Step(0.1); err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(ms.Temps(), mc.Temps()); d > directTol {
					t.Fatalf("liquid=%v %dx%d step %d: |T_super − T_scalar| = %g K > %g",
						liquid, dims[0], dims[1], step, d, directTol)
				}
			}
			if err := ms.SteadyState(); err != nil {
				t.Fatal(err)
			}
			if err := mc.SteadyState(); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(ms.Temps(), mc.Temps()); d > directTol {
				t.Errorf("liquid=%v %dx%d steady: |T_super − T_scalar| = %g K",
					liquid, dims[0], dims[1], d)
			}
			if _, _, active := ms.SupernodeStats(); !active {
				t.Errorf("liquid=%v %dx%d: SolverSupernodal did not activate the panel kernels",
					liquid, dims[0], dims[1])
			}
			if _, _, active := mc.SupernodeStats(); active {
				t.Errorf("liquid=%v %dx%d: SolverScalar left the panel kernels on",
					liquid, dims[0], dims[1])
			}
		}
	}
}

// TestSupernodalKernelForcing pins the knob semantics: the forced kinds
// override the profitability gate in both directions, the stats accessor
// reports a coherent partition, and a shared symbolic analysis passed
// through NewWithSymbolic picks up the clone's own forced mode.
func TestSupernodalKernelForcing(t *testing.T) {
	stack := floorplan.NewT1Stack2(true)
	g, err := grid.Build(stack, grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Solver = SolverSupernodal
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0.1); err != nil {
		t.Fatal(err)
	}
	sn, width, active := m.SupernodeStats()
	if !active || sn <= 0 || width < 1 {
		t.Fatalf("forced supernodal: stats = (%d, %g, %v)", sn, width, active)
	}

	// The same analysis seeds a scalar-forced sibling: the clone must not
	// inherit the forced panel mode.
	symb, err := m.EnsureSymbolic()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig()
	cfg2.Solver = SolverScalar
	m2, err := NewWithSymbolic(g, cfg2, symb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Step(0.1); err != nil {
		t.Fatal(err)
	}
	if _, _, active := m2.SupernodeStats(); active {
		t.Fatal("scalar-forced clone runs the panel kernels")
	}
}
