package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// scalarColumn collects column j of a scalar-layout factor as a row→value
// map (diagonal of L implicit).
func scalarColumn(s *LDLSymbolic, f *LDLNumeric, j int) map[int32]float64 {
	col := map[int32]float64{}
	for p := s.lp[j]; p < s.lp[j+1]; p++ {
		col[s.li[p]] = f.lx[p]
	}
	return col
}

// compareSuperToScalar checks the supernodal factor fs against the scalar
// factor fc column by column: shared entries within relTol relative,
// padded slots exactly ±0, D within relTol.
func compareSuperToScalar(t *testing.T, s *LDLSymbolic, fs, fc *LDLNumeric, relTol float64) {
	t.Helper()
	sp := s.super
	for j := 0; j < s.n; j++ {
		if d := math.Abs(fs.d[j] - fc.d[j]); d > relTol*(1+math.Abs(fc.d[j])) {
			t.Fatalf("d[%d]=%g scalar %g", j, fs.d[j], fc.d[j])
		}
	}
	for sn := 0; sn < sp.nsn; sn++ {
		c0 := int(sp.snPtr[sn])
		w := int(sp.snPtr[sn+1]) - c0
		r0 := int(sp.rowPtr[sn])
		nr := int(sp.rowPtr[sn+1]) - r0
		pan := fs.lx[sp.panelPtr[sn]:sp.panelPtr[sn+1]]
		rws := sp.rows[r0 : r0+nr]
		for k := 0; k < w; k++ {
			j := c0 + k
			want := scalarColumn(s, fc, j)
			for i := k + 1; i < nr; i++ {
				v := pan[k*nr+i]
				if wv, ok := want[rws[i]]; ok {
					if d := math.Abs(v - wv); d > relTol*(1+math.Abs(wv)) {
						t.Fatalf("L[%d,%d]=%g scalar %g", rws[i], j, v, wv)
					}
				} else if v != 0 {
					t.Fatalf("padded slot L[%d,%d]=%g, want exact 0", rws[i], j, v)
				}
			}
		}
	}
}

// TestSupernodalMatchesScalar is the core property test: across random
// SPD systems and orderings, the dense-panel factorization agrees with
// the scalar factorization to ≤1e-9 relative on L and D, every padded
// slot stays a structural ±0, and the panel solve matches the scalar
// solve to the same bound.
func TestSupernodalMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderND, OrderAuto} {
		for trial := 0; trial < 5; trial++ {
			n := 20 + rng.Intn(300)
			a := randSPD(n, 1+rng.Intn(3), rng)
			s, err := AnalyzeLDL(a, ord)
			if err != nil {
				t.Fatal(err)
			}
			s.setSupernodal(false)
			fc, err := s.Factorize(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.setSupernodal(true)
			fs, err := s.Factorize(a, nil)
			if err != nil {
				t.Fatalf("ord %v n=%d: supernodal: %v", ord, n, err)
			}
			compareSuperToScalar(t, s, fs, fc, 1e-9)

			bvec := make([]float64, n)
			for i := range bvec {
				bvec[i] = rng.NormFloat64()
			}
			xc := make([]float64, n)
			xs := make([]float64, n)
			fc.Solve(xc, bvec)
			fs.Solve(xs, bvec)
			for i := range xs {
				if d := math.Abs(xs[i] - xc[i]); d > 1e-9*(1+math.Abs(xc[i])) {
					t.Fatalf("ord %v n=%d: x[%d]=%g scalar %g", ord, n, i, xs[i], xc[i])
				}
			}
			if res := residual(a, xs, bvec); res > 1e-9 {
				t.Fatalf("ord %v n=%d: residual %g", ord, n, res)
			}
		}
	}
}

// TestSupernodalGridMatchesScalar repeats the property on the grid
// Laplacians the thermal solver actually produces, where amalgamation
// finds real runs (the random graphs above mostly exercise narrow
// panels).
func TestSupernodalGridMatchesScalar(t *testing.T) {
	a := gridLaplacian(40, 30, 2)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanPanelWidth() <= 1 {
		t.Fatalf("grid Laplacian found no amalgamation (mean width %g)", s.MeanPanelWidth())
	}
	s.setSupernodal(false)
	fc, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.setSupernodal(true)
	fs, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareSuperToScalar(t, s, fs, fc, 1e-9)
}

// TestSupernodalDegenerateWidthOne rebuilds the partition with panel
// width capped at one and no relaxation: every supernode is a single
// column, there is no padding, and the blocked kernels degrade to a
// per-column left-looking factorization that matches the scalar path to
// tight tolerance.
func TestSupernodalDegenerateWidthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randSPD(150, 2, rng)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	s.buildSupernodes(1, false, true)
	if s.super.nsn != s.n {
		t.Fatalf("width-1 partition has %d supernodes, want %d", s.super.nsn, s.n)
	}
	if s.super.padNNZ != 0 {
		t.Fatalf("width-1 partition has %d padded entries, want 0", s.super.padNNZ)
	}
	s.setSupernodal(false)
	fc, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.setSupernodal(true)
	fs, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareSuperToScalar(t, s, fs, fc, 1e-12)
	bvec := make([]float64, a.N)
	for i := range bvec {
		bvec[i] = rng.NormFloat64()
	}
	x := make([]float64, a.N)
	fs.Solve(x, bvec)
	if res := residual(a, x, bvec); res > 1e-10 {
		t.Fatalf("residual %g", res)
	}
}

// TestSupernodalSolveBatchMatchesSequential: each lane of a supernodal
// SolveBatch is bit-identical to a sequential supernodal Solve of that
// right-hand side.
func TestSupernodalSolveBatchMatchesSequential(t *testing.T) {
	a := gridLaplacian(35, 25, 2)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	s.setSupernodal(true)
	f, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const k = 8
	xs := make([][]float64, k)
	bs := make([][]float64, k)
	for r := range xs {
		xs[r] = make([]float64, a.N)
		bs[r] = make([]float64, a.N)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	f.SolveBatch(xs, bs)
	want := make([]float64, a.N)
	for r := range xs {
		f.Solve(want, bs[r])
		for i := range want {
			if math.Float64bits(xs[r][i]) != math.Float64bits(want[i]) {
				t.Fatalf("rhs %d: x[%d]=%g sequential %g", r, i, xs[r][i], want[i])
			}
		}
	}
}

// TestSupernodalAutoSelection pins the profitability gate: small systems
// stay scalar (golden byte-stability depends on it), a paper-scale grid
// flips supernodal automatically.
func TestSupernodalAutoSelection(t *testing.T) {
	small := gridLaplacian(12, 10, 2)
	s, err := AnalyzeLDL(small, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	if s.Supernodal() {
		t.Errorf("n=%d must default to the scalar kernels", small.N)
	}
	big := gridLaplacian(70, 60, 2)
	sb, err := AnalyzeLDL(big, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !sb.Supernodal() {
		t.Errorf("n=%d mean width %.2f must default to the panel kernels",
			big.N, sb.MeanPanelWidth())
	}
	if sb.Supernodes() <= 0 || sb.PanelNNZ() < sb.NNZL() {
		t.Errorf("partition stats inconsistent: %d supernodes, panel nnz %d < nnzL %d",
			sb.Supernodes(), sb.PanelNNZ(), sb.NNZL())
	}
}

// TestSupernodalHotPathAllocFree extends the per-tick contract to the
// panel kernels: refactorization into a reused numeric object, Solve and
// SolveBatch all allocate nothing in steady state.
func TestSupernodalHotPathAllocFree(t *testing.T) {
	a := gridLaplacian(70, 60, 2)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Supernodal() {
		t.Fatal("expected the auto gate to pick supernodal at this size")
	}
	f, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	bvec := make([]float64, a.N)
	for i := range bvec {
		bvec[i] = 1
	}
	x := make([]float64, a.N)
	if allocs := testing.AllocsPerRun(10, func() { f.Solve(x, bvec) }); allocs != 0 {
		t.Errorf("supernodal Solve allocates %v objects, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Factorize(a, f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("reused supernodal Factorize allocates %v objects, want 0", allocs)
	}
	const k = 4
	xs := make([][]float64, k)
	bs := make([][]float64, k)
	for r := range xs {
		xs[r] = make([]float64, a.N)
		bs[r] = bvec
	}
	f.SolveBatch(xs, bs) // grow the panel scratch once
	if allocs := testing.AllocsPerRun(10, func() { f.SolveBatch(xs, bs) }); allocs != 0 {
		t.Errorf("supernodal SolveBatch allocates %v objects, want 0", allocs)
	}
}

// TestSupernodalNotPositiveDefinite: an indefinite system fails with
// ErrNotPositiveDefinite, and the symbolic object stays reusable
// afterwards.
func TestSupernodalNotPositiveDefinite(t *testing.T) {
	nx, ny := 30, 20
	good := gridLaplacian(nx, ny, 2)
	bad := gridLaplacian(nx, ny, 2)
	// Same structure, one diagonal entry driven negative.
	sink := (ny/2)*nx + nx/2
	for p := bad.RowPtr[sink]; p < bad.RowPtr[sink+1]; p++ {
		if bad.Col[p] == sink {
			bad.Val[p] = -3
		}
	}
	s, err := AnalyzeLDL(good, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	s.setSupernodal(true)
	if _, err := s.Factorize(bad, nil); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
	// Recovery: the same symbolic object factorizes the SPD system.
	f, err := s.Factorize(good, nil)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	b := make([]float64, good.N)
	b[0] = 1
	x := make([]float64, good.N)
	f.Solve(x, b)
	if res := residual(good, x, b); res > 1e-10 {
		t.Fatalf("recovery residual %g", res)
	}
}
