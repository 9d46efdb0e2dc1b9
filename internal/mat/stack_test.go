package mat_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
			a := stackSystem(t, c.newStack, c.nx, c.ny)
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

// stackSystem assembles the backward-Euler system (mid flow, dt = 0.1 s)
// of a liquid-cooled stack at nx×ny cells per slab.
func stackSystem(t *testing.T, newStack func(liquid bool) *floorplan.Stack, nx, ny int) *mat.CSR {
	return cooledSystem(t, newStack, true, nx, ny)
}

// cooledSystem assembles the backward-Euler system (dt = 0.1 s) of a
// liquid-cooled stack at mid flow, or of an air-cooled one.
func cooledSystem(t *testing.T, newStack func(liquid bool) *floorplan.Stack, liquid bool, nx, ny int) *mat.CSR {
	t.Helper()
	g, err := grid.Build(newStack(liquid), grid.DefaultParams(nx, ny))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rcnet.New(g, rcnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if liquid {
		if err := m.SetFlow(0.5); err != nil {
			t.Fatal(err)
		}
	}
	a, err := m.SystemCSR(0.1)
	if err != nil {
		t.Fatal(err)
	}
	return a
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

// TestSupernodalOrderingPinned pins the elimination orders: the SHA-256
// of OrderND's and OrderRCM's permutation (each entry a little-endian
// uint32) on the paper-resolution 115×100 grid Laplacian and on the
// 2-layer 23×20 stack system. A change to the orderer that moves either
// order — a different tie-break in the BFS frontier sort, say — moves
// every factor, solve and golden downstream of it, so it must show here.
func TestSupernodalOrderingPinned(t *testing.T) {
	systems := []struct {
		name string
		a    *mat.CSR
		want map[mat.Ordering]string
	}{
		{"grid-115x100", mat.GridLaplacian(115, 100, 1), map[mat.Ordering]string{
			mat.OrderND:  "e2e0167f097e3450efe327e06cabecbf4d2a493646fdf46b5314bfd1822df973",
			mat.OrderRCM: "33897821b1039a607cddecb0780270d31a83e086cd6a5dcef3c034c3fc0fe61a",
		}},
		{"2-layer-23x20", stackSystem(t, floorplan.NewT1Stack2, 23, 20), map[mat.Ordering]string{
			mat.OrderND:  "61012454846652183135c636fb695af99b8af03d5894e933cb1b7fa16aa163a1",
			mat.OrderRCM: "7f60c3f9314ce55e4a1ebc6f3684f3ef432ca1d80a76978d76a4705cf5d3227f",
		}},
	}
	ordName := map[mat.Ordering]string{mat.OrderND: "ND", mat.OrderRCM: "RCM"}
	for _, sys := range systems {
		for _, ord := range []mat.Ordering{mat.OrderND, mat.OrderRCM} {
			var buf []byte
			for _, v := range ord.Permutation(sys.a) {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
			sum := sha256.Sum256(buf)
			if got := hex.EncodeToString(sum[:]); got != sys.want[ord] {
				t.Errorf("%s %s: permutation SHA-256 %s, pinned %s", sys.name, ordName[ord], got, sys.want[ord])
			}
		}
	}
}

// TestScalarStreamsStackBitIdentical pins the two-stream scalar Solve to the
// one-column serial loop on the simulator's scalar-kernel systems: the
// 2-layer liquid 12×10 and 23×20 stacks, and the 4-layer air 23×20 stack,
// whose lumped sink node couples to every top-die cell, so a subtree's
// columns there do not form the range from its first descendant to its
// root (the test asserts it, so that a plan built from such ranges would
// fail here). The 2-layer 23×20 system, perfbench sweep's, and the air
// system must get two non-empty streams, so the interleave is exercised.
func TestScalarStreamsStackBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		newStack func(liquid bool) *floorplan.Stack
		liquid   bool
		nx, ny   int
		streams  bool
	}{
		{"2-layer-liquid-12x10", floorplan.NewT1Stack2, true, 12, 10, false},
		{"2-layer-liquid-23x20", floorplan.NewT1Stack2, true, 23, 20, true},
		{"4-layer-air-23x20", floorplan.NewT1Stack4, false, 23, 20, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := cooledSystem(t, c.newStack, c.liquid, c.nx, c.ny)
			s := mat.CheckStreamsBitIdentical(t, a, mat.OrderAuto)
			if s0, s1, _ := mat.StreamSizes(s); c.streams && (s0 == 0 || s1 == 0) {
				t.Errorf("streams of %d and %d columns, want two non-empty streams", s0, s1)
			}
			if !c.liquid && !mat.StreamRangesInterleave(s) {
				t.Error("no stream subtree's column range holds another column: the air case no longer tests enumeration from parent")
			}
		})
	}
}
