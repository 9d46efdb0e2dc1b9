package rcnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/units"
)

// directTol is the required agreement between the LDLᵀ and CG temperature
// fields (ISSUE 2 acceptance: ≤ 1e-6 K).
const directTol = 1e-6

func buildSolverPair(t *testing.T, newStack func(liquid bool) *floorplan.Stack, liquid bool, nx, ny int) (direct, cg *Model) {
	t.Helper()
	mk := func(solver SolverKind) *Model {
		g, err := grid.Build(newStack(liquid), grid.DefaultParams(nx, ny))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Solver = solver
		// Tighten CG far below its default so the iterative reference is
		// itself accurate to ≪1e-6 K: the air-cooled RHS norm is dominated
		// by the sink row, so a relative residual of 1e-10 still leaves
		// ~1e-4 K of absolute error (the direct solve is exact to machine
		// precision either way).
		cfg.SolverTol = 1e-13
		m, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return mk(SolverDirect), mk(SolverCG)
}

func maxAbsDiff(a, b []float64) float64 {
	mx := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// TestDirectMatchesCGProperty is the solver-equivalence property test of
// ISSUE 2: across liquid- and air-cooled stacks, random power maps, random
// flow switches and both test grid resolutions, the direct LDLᵀ transient
// trajectory and steady state must match the CG reference within 1e-6 K.
func TestDirectMatchesCGProperty(t *testing.T) {
	grids := [][2]int{{12, 10}, {23, 20}}
	for _, liquid := range []bool{true, false} {
		for _, dims := range grids {
			md, mc := buildSolverPair(t, floorplan.NewT1Stack2, liquid, dims[0], dims[1])
			rng := rand.New(rand.NewSource(int64(dims[0]) + 31*int64(dims[1])))
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
			for step := 0; step < 25; step++ {
				if step%5 == 0 {
					seed := rng.Int63()
					setPower(md, seed)
					setPower(mc, seed)
					if liquid {
						flow := units.LitersPerMinute(0.1 + 0.9*rng.Float64())
						if step%10 == 5 {
							flow = 0 // stagnant coolant still conducts
						}
						if err := md.SetFlow(flow); err != nil {
							t.Fatal(err)
						}
						if err := mc.SetFlow(flow); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := md.Step(0.1); err != nil {
					t.Fatal(err)
				}
				if err := mc.Step(0.1); err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(md.Temps(), mc.Temps()); d > directTol {
					t.Fatalf("liquid=%v %dx%d step %d: |T_direct − T_CG| = %g K > %g",
						liquid, dims[0], dims[1], step, d, directTol)
				}
			}
			if md.Factorizations() == 0 {
				t.Fatalf("liquid=%v %dx%d: direct model never factored", liquid, dims[0], dims[1])
			}
			// Steady state must agree too (liquid needs flow; the last
			// random flow may be zero).
			if liquid {
				if err := md.SetFlow(0.4); err != nil {
					t.Fatal(err)
				}
				if err := mc.SetFlow(0.4); err != nil {
					t.Fatal(err)
				}
			}
			if err := md.SteadyState(); err != nil {
				t.Fatal(err)
			}
			if err := mc.SteadyState(); err != nil {
				t.Fatal(err)
			}
			// The fixed point iterates coolant boundary conditions to a
			// 1e-5 K stopping delta, so allow the two independently
			// converged trajectories that margin on top of the linear
			// solve tolerance.
			if d := maxAbsDiff(md.Temps(), mc.Temps()); d > 5e-5 {
				t.Errorf("liquid=%v %dx%d steady: |T_direct − T_CG| = %g K", liquid, dims[0], dims[1], d)
			}
		}
	}
}

// TestFactorCacheReuse pins the caching contract: repeated ticks at one
// flow setting factor once, a SetFlow to the same value does not
// invalidate, a new non-zero flow is a cache hit (every non-zero flow
// gives the same matrix), and only a new dt or a zero flow — genuinely
// new (flow > 0, dt) keys — factor.
func TestFactorCacheReuse(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Solver = SolverDirect
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1Power(t, m)
	step := func() {
		t.Helper()
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	step()
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("first step: %d factorizations, want 1", got)
	}
	for i := 0; i < 5; i++ {
		step()
	}
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("repeated ticks: %d factorizations, want 1", got)
	}

	// SetFlow to the same value must not invalidate the cache.
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	step()
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("same-value SetFlow: %d factorizations, want 1", got)
	}

	// A new non-zero flow setting is the same matrix: a cache hit.
	if err := m.SetFlow(0.2); err != nil {
		t.Fatal(err)
	}
	step()
	step()
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("new non-zero flow: %d factorizations, want 1", got)
	}
	// Zero flow drops the convective conductances: a new key, factored
	// once...
	if err := m.SetFlow(0); err != nil {
		t.Fatal(err)
	}
	step()
	step()
	if got := m.Factorizations(); got != 2 {
		t.Fatalf("zero flow: %d factorizations, want 2", got)
	}
	// ...and switching back to a running pump is a cache hit.
	if err := m.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	step()
	if got := m.Factorizations(); got != 2 {
		t.Fatalf("revisited flow: %d factorizations, want 2", got)
	}
	// A new dt is a new key.
	if err := m.Step(0.05); err != nil {
		t.Fatal(err)
	}
	if got := m.Factorizations(); got != 3 {
		t.Fatalf("new dt: %d factorizations, want 3", got)
	}
	if got := m.CachedFactors(); got != 3 {
		t.Fatalf("cache holds %d factors, want 3", got)
	}
}

// TestFactorCacheEviction drives more distinct keys than the cache holds
// and checks the solver keeps producing correct answers and the model's
// memo stays bounded (FIFO eviction drops the oldest key).
func TestFactorCacheEviction(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Solver = SolverDirect
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1Power(t, m)
	ref, err := New(g, func() Config { c := DefaultConfig(); c.Solver = SolverCG; c.SolverTol = 1e-13; return c }())
	if err != nil {
		t.Fatal(err)
	}
	t1Power(t, ref)
	// Distinct keys come from distinct dt (every non-zero flow shares
	// one matrix); the flow still varies so the coolant march does.
	for i := 0; i < 2*maxCachedFactors+3; i++ {
		flow := units.LitersPerMinute(0.1 + 0.02*float64(i))
		dt := units.Second(0.05 + 0.01*float64(i))
		if err := m.SetFlow(flow); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetFlow(flow); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(dt); err != nil {
			t.Fatal(err)
		}
		if err := ref.Step(dt); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Factorizations(); got != 2*maxCachedFactors+3 {
		t.Fatalf("%d factorizations, want one per dt (%d)", got, 2*maxCachedFactors+3)
	}
	if got := m.CachedFactors(); got > maxCachedFactors {
		t.Fatalf("cache grew to %d entries, cap %d", got, maxCachedFactors)
	}
	if d := maxAbsDiff(m.Temps(), ref.Temps()); d > directTol {
		t.Fatalf("after eviction churn |T_direct − T_CG| = %g K", d)
	}
}

// TestSteadyStateSharesFactorAcrossLadder checks the BuildLUT access
// pattern: many steady solves across pump settings and power maps reuse a
// single dt=0 factorization.
func TestSteadyStateSharesFactorAcrossLadder(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Solver = SolverDirect
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0.2, 0.6, 1.0} {
		if err := m.SetFlow(units.LitersPerMinute(0.3 + scale)); err != nil {
			t.Fatal(err)
		}
		for li, layer := range g.Stack.Layers {
			p := make([]float64, len(layer.Blocks))
			for bi := range p {
				p[bi] = 3 * scale
			}
			if err := m.SetLayerPower(li, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SteadyState(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Factorizations(); got != 1 {
		t.Fatalf("ladder sweep: %d factorizations, want 1", got)
	}
}

func TestParseSolver(t *testing.T) {
	cases := map[string]SolverKind{
		"": SolverAuto, "auto": SolverAuto,
		"direct": SolverDirect, "ldlt": SolverDirect,
		"cg": SolverCG, "iterative": SolverCG,
	}
	for in, want := range cases {
		got, err := ParseSolver(in)
		if err != nil || got != want {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// The LDLᵀ kernel family is not user-selectable: the analysis picks
	// it by system size, so the former forcing names are rejected.
	for _, in := range []string{"nope", "scalar", "supernodal", "super"} {
		if _, err := ParseSolver(in); err == nil {
			t.Errorf("ParseSolver(%q) did not fail", in)
		}
	}
	for _, k := range []SolverKind{SolverAuto, SolverDirect, SolverCG} {
		if rt, err := ParseSolver(k.String()); err != nil || rt != k {
			t.Errorf("round trip %v failed: %v, %v", k, rt, err)
		}
	}
}
