package mat_test

import (
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/mat"
)

// TestSolveBatchMatchesSolve is the batch-path property test: for every
// batch width 1–9 and 17 — one pair, several pairs, and an odd last
// right-hand side left to Solve — SolveBatch must reproduce k
// sequential Solve calls, on these strictly positive systems bit for bit
// (far inside the ≤ 1e-12 contract the gang scheduler depends on). The
// systems are random SPD matrices and the simulator's 2-layer 23×20
// liquid system at dt = 0.1 s, the factor perfbench sweep's gangs solve
// through.
func TestSolveBatchMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var systems []*mat.CSR
	for trial := 0; trial < 4; trial++ {
		systems = append(systems, mat.RandSPD(40+rng.Intn(160), 1+rng.Intn(3), rng))
	}
	systems = append(systems, stackSystem(t, floorplan.NewT1Stack2, 23, 20))
	for _, a := range systems {
		n := a.N
		s, err := mat.AnalyzeLDL(a, mat.OrderAuto)
		if err != nil {
			t.Fatal(err)
		}
		if s.Supernodal() {
			t.Fatalf("n = %d: want the scalar kernels", n)
		}
		f, err := s.Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17} {
			bs := make([][]float64, k)
			xs := make([][]float64, k)
			want := make([][]float64, k)
			for r := 0; r < k; r++ {
				bs[r] = make([]float64, n)
				for i := range bs[r] {
					bs[r][i] = 250 + 100*rng.Float64()
				}
				xs[r] = make([]float64, n)
				want[r] = make([]float64, n)
				f.Solve(want[r], bs[r])
			}
			f.SolveBatch(xs, bs)
			for r := 0; r < k; r++ {
				for i := 0; i < n; i++ {
					if xs[r][i] != want[r][i] {
						t.Fatalf("n=%d k=%d rhs %d node %d: batch %g vs solve %g",
							n, k, r, i, xs[r][i], want[r][i])
					}
				}
			}
		}
	}
}

// TestSolveBatchAliasing: xs[r] may alias bs[r] (the thermal stepper
// solves into the state vector the RHS was built from), on the scalar
// pair kernel — k = 5, two pairs and an odd last right-hand side — and
// on a panel factor's per-RHS Solve.
func TestSolveBatchAliasing(t *testing.T) {
	a := mat.GridLaplacian(9, 7, 1.5)
	for _, super := range []bool{false, true} {
		s, err := mat.AnalyzeLDL(a, mat.OrderAuto)
		if err != nil {
			t.Fatal(err)
		}
		mat.SetSupernodal(s, super)
		f, err := s.Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		const k = 5
		var xs, bs, want [][]float64
		for r := 0; r < k; r++ {
			v := make([]float64, a.N)
			for i := range v {
				v[i] = float64(i%11) + float64(r)
			}
			w := make([]float64, a.N)
			f.Solve(w, v)
			want = append(want, w)
			xs = append(xs, v) // alias: solve in place
			bs = append(bs, v)
		}
		f.SolveBatch(xs, bs)
		for r := 0; r < k; r++ {
			for i := range xs[r] {
				if xs[r][i] != want[r][i] {
					t.Fatalf("supernodal=%v aliased batch rhs %d node %d: %g vs %g", super, r, i, xs[r][i], want[r][i])
				}
			}
		}
	}
}

// TestSolveBatchAllocFree extends the allocation contract to the scalar
// batch path: after the first SolveBatch, which grows the 2·n panel,
// SolveBatch allocates nothing — here at k = 9, four pairs and a Solve.
func TestSolveBatchAllocFree(t *testing.T) {
	a := mat.GridLaplacian(40, 32, 2)
	s, err := mat.AnalyzeLDL(a, mat.OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	bvec := make([]float64, a.N)
	for i := range bvec {
		bvec[i] = 1
	}
	const k = 9
	xs, bs := make([][]float64, k), make([][]float64, k)
	for r := range xs {
		xs[r], bs[r] = make([]float64, a.N), bvec
	}
	f.SolveBatch(xs, bs) // size the panel
	if allocs := testing.AllocsPerRun(10, func() { f.SolveBatch(xs, bs) }); allocs != 0 {
		t.Errorf("SolveBatch allocates %v objects, want 0", allocs)
	}
}
