package mat_test

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/rcnet"
	"repro/internal/testutil"
)

// stackCase is one of the simulator's liquid-cooled systems on the panel
// kernels: the 4-layer 23×20 stack (n = 4140, the smallest the size gate
// sends to them, and the one that forks under -race) and the paper's
// 2-layer 115×100 grid.
type stackCase struct {
	name     string
	newStack func(liquid bool) *floorplan.Stack
	nx, ny   int
}

var stackCases = []stackCase{
	{"4-layer-23x20", floorplan.NewT1Stack4, 23, 20},
	{"2-layer-115x100", floorplan.NewT1Stack2, 115, 100},
}

// forEachStack runs fn on each stack case's backward-Euler system (mid
// flow, dt = 0.1 s) and its analysis, skipping the paper-resolution one
// under -short and -race (its factorizations take minutes there).
func forEachStack(t *testing.T, fn func(t *testing.T, a *mat.CSR, s *mat.LDLSymbolic)) {
	for _, c := range stackCases {
		t.Run(c.name, func(t *testing.T) {
			if c.nx > 23 && (testing.Short() || testutil.RaceEnabled) {
				t.Skip("paper-resolution system: skipped under -short and -race")
			}
			g, err := grid.Build(c.newStack(true), grid.DefaultParams(c.nx, c.ny))
			if err != nil {
				t.Fatal(err)
			}
			m, err := rcnet.New(g, rcnet.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetFlow(0.5); err != nil {
				t.Fatal(err)
			}
			a, err := m.SystemCSR(0.1)
			if err != nil {
				t.Fatal(err)
			}
			s, err := mat.AnalyzeLDL(a, mat.OrderAuto)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Supernodal() {
				t.Fatalf("n = %d: the size gate did not pick the panel kernels", a.N)
			}
			if nt := mat.SubtreeTasks(s); nt < 2 {
				t.Fatalf("schedule has %d subtree tasks, want ≥ 2 (nothing would fork)", nt)
			}
			fn(t, a, s)
		})
	}
}

// TestSupernodalStackSchedule checks the subtree schedule's invariants
// on the simulator's systems.
func TestSupernodalStackSchedule(t *testing.T) {
	forEachStack(t, func(t *testing.T, _ *mat.CSR, s *mat.LDLSymbolic) {
		if err := mat.CheckSchedule(s); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSupernodalStackBitIdentical pins the subtree-parallel kernels on
// the simulator's systems at GOMAXPROCS 1, 2 and 8, bit for bit
// (mat.CheckBitIdentical): L and D after Factorize against the serial
// ascending factorization, Solve against the serial gather-form solve,
// and every SolveBatch lane against Solve.
func TestSupernodalStackBitIdentical(t *testing.T) {
	forEachStack(t, mat.CheckBitIdentical)
}

// TestSupernodalStackNotPositiveDefinite drives pairs of diagonal
// entries of the simulator's systems negative, failing pivots in
// different tasks and in the top, and checks that every GOMAXPROCS
// reports the column and pivot the serial ascending factorization meets
// first (mat.CheckPoisonPivots).
func TestSupernodalStackNotPositiveDefinite(t *testing.T) {
	forEachStack(t, mat.CheckPoisonPivots)
}
