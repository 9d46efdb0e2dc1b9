package rcnet

import (
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/units"
)

// gateSides are the two 23×20 liquid-cooled stacks that straddle the
// kernel-family gate (mat.LDLSymbolic.SupernodalProfitable): the 2-layer
// stack (n = 2300) stays on the scalar column kernels and the 4-layer
// stack (n = 4140) crosses to the supernodal dense panels.
var gateSides = []struct {
	name      string
	newStack  func(liquid bool) *floorplan.Stack
	n         int
	wantSuper bool
}{
	{"2-layer", floorplan.NewT1Stack2, 2300, false},
	{"4-layer", floorplan.NewT1Stack4, 4140, true},
}

// TestSupernodalMatchesScalarEndToEnd is the end-to-end kernel-equivalence
// property: both kernel families are held to the same tightened CG
// reference, one on each side of the gate. Across random power maps and
// random flow switches, transient trajectories and steady states agree
// with CG within 1e-6 K, so the supernodal and scalar paths agree with
// each other to within twice that.
func TestSupernodalMatchesScalarEndToEnd(t *testing.T) {
	const nx, ny = 23, 20
	for _, side := range gateSides {
		t.Run(side.name, func(t *testing.T) {
			md, mc := buildSolverPair(t, side.newStack, true, nx, ny)
			if md.NumNodes() != side.n {
				t.Fatalf("n = %d, want %d", md.NumNodes(), side.n)
			}
			rng := rand.New(rand.NewSource(int64(md.NumNodes())))
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
					setPower(md, seed)
					setPower(mc, seed)
					flow := units.LitersPerMinute(0.1 + 0.9*rng.Float64())
					if err := md.SetFlow(flow); err != nil {
						t.Fatal(err)
					}
					if err := mc.SetFlow(flow); err != nil {
						t.Fatal(err)
					}
				}
				if err := md.Step(0.1); err != nil {
					t.Fatal(err)
				}
				if err := mc.Step(0.1); err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(md.Temps(), mc.Temps()); d > directTol {
					t.Fatalf("step %d: |T_direct − T_CG| = %g K > %g", step, d, directTol)
				}
			}
			if err := md.SteadyState(); err != nil {
				t.Fatal(err)
			}
			if err := mc.SteadyState(); err != nil {
				t.Fatal(err)
			}
			// The fixed point stops at a 1e-5 K outer delta, so two
			// independently converged runs get that margin on top of
			// the linear solve tolerance (as in TestDirectMatchesCGProperty).
			if d := maxAbsDiff(md.Temps(), mc.Temps()); d > 5e-5 {
				t.Errorf("steady: |T_direct − T_CG| = %g K", d)
			}
		})
	}
}

// TestSupernodalKernelForcing pins how the kernel family is chosen now
// that no knob forces it: the size gate alone decides, SupernodeStats
// reports the gate's pick with a coherent partition, a sibling seeded
// with the shared analysis through Network.NewModel runs the same family
// and reproduces the seed model's step bit for bit, and a CG model reports no
// direct-solver partition.
func TestSupernodalKernelForcing(t *testing.T) {
	const nx, ny = 23, 20
	for _, side := range gateSides {
		t.Run(side.name, func(t *testing.T) {
			md, mc := buildSolverPair(t, side.newStack, true, nx, ny)
			if md.NumNodes() != side.n {
				t.Fatalf("n = %d, want %d", md.NumNodes(), side.n)
			}
			if err := md.Step(0.1); err != nil {
				t.Fatal(err)
			}
			symb, err := md.EnsureSymbolic()
			if err != nil {
				t.Fatal(err)
			}
			if got := symb.SupernodalProfitable(); got != side.wantSuper {
				t.Fatalf("gate picks supernodal = %v, want %v", got, side.wantSuper)
			}
			sn, width, active := md.SupernodeStats()
			if active != side.wantSuper {
				t.Errorf("supernodal kernels active = %v, want %v", active, side.wantSuper)
			}
			if sn <= 0 || width < 1 {
				t.Errorf("incoherent partition stats (%d supernodes, mean width %g)", sn, width)
			}

			sib, err := md.net.NewModel(symb, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sib.Step(0.1); err != nil {
				t.Fatal(err)
			}
			if _, _, a := sib.SupernodeStats(); a != active {
				t.Errorf("sibling: supernodal active = %v, want %v", a, active)
			}
			if d := maxAbsDiff(sib.Temps(), md.Temps()); d != 0 {
				t.Errorf("sibling differs from its seed model by %g K", d)
			}

			if sn, _, active := mc.SupernodeStats(); sn != 0 || active {
				t.Errorf("SolverCG model reports a direct-solver partition")
			}
		})
	}
}
