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

// solveGatherOracle is the left-looking (gather-form) supernodal solve,
// kept as a test-only reference for the right-looking forwardSuper: for
// each target supernode it walks the update list and gathers every
// descendant's few-row segment, accumulated over the descendant's columns
// in ascending order and subtracted once, then runs the diagonal-block
// solve. The diagonal scaling and the backward sweep are the production
// ones. Each w[r] receives the same subtractions in the same order as in
// the streaming form, so the two must agree bit for bit.
func solveGatherOracle(f *LDLNumeric, x, b []float64) {
	s := f.s
	sp := s.super
	s.ensureSuperSolveScratch()
	w := s.w
	for k := 0; k < s.n; k++ {
		w[k] = b[s.perm[k]]
	}
	acc := make([]float64, sp.maxW)
	for sn := 0; sn < sp.nsn; sn++ {
		c0 := int(sp.snPtr[sn])
		wid := int(sp.snPtr[sn+1]) - c0
		for u := sp.updPtr[sn]; u < sp.updPtr[sn+1]; u++ {
			d := int(sp.updSn[u])
			lo := int(sp.updLo[u])
			hi := int(sp.updHi[u])
			c0d := int(sp.snPtr[d])
			wd := int(sp.snPtr[d+1]) - c0d
			nrd := int(sp.rowPtr[d+1] - sp.rowPtr[d])
			pand := f.lx[sp.panelPtr[d]:]
			a := acc[:hi-lo]
			clear(a)
			for k := 0; k < wd; k++ {
				t := w[c0d+k]
				for i, v := range pand[k*nrd+lo : k*nrd+hi] {
					a[i] += v * t
				}
			}
			for i, r := range sp.rows[int(sp.rowPtr[d])+lo : int(sp.rowPtr[d])+hi] {
				w[r] -= a[i]
			}
		}
		nr := int(sp.rowPtr[sn+1] - sp.rowPtr[sn])
		pan := f.lx[sp.panelPtr[sn]:]
		for k := 0; k < wid; k++ {
			t := w[c0+k]
			col := pan[k*nr:]
			for i := k + 1; i < wid; i++ {
				w[c0+i] -= col[i] * t
			}
		}
	}
	for j := 0; j < s.n; j++ {
		w[j] *= f.invd[j]
	}
	for sn := sp.nsn - 1; sn >= 0; sn-- {
		f.backwardSuper(sn)
	}
	for k := 0; k < s.n; k++ {
		x[s.perm[k]] = w[k]
	}
}

// TestSupernodalForwardMatchesGatherOracle pins the streaming forward
// sweep to the gather-form oracle bit for bit: Solve and every lane of
// SolveBatch, on grid Laplacians either side of the n ≥ 4096 gate (the
// panel kernels forced below it), under ND and RCM orderings, plus the
// width-1 degenerate partition.
func TestSupernodalForwardMatchesGatherOracle(t *testing.T) {
	type tc struct {
		nx, ny int
		ord    Ordering
		width1 bool
	}
	var cases []tc
	for _, g := range [][2]int{{23, 20}, {60, 50}, {70, 60}, {115, 100}} {
		for _, ord := range []Ordering{OrderND, OrderRCM} {
			cases = append(cases, tc{g[0], g[1], ord, false})
		}
	}
	cases = append(cases, tc{30, 20, OrderND, true}, tc{30, 20, OrderRCM, true})
	ordName := map[Ordering]string{OrderND: "ND", OrderRCM: "RCM"}
	rng := rand.New(rand.NewSource(19))
	for _, c := range cases {
		a := gridLaplacian(c.nx, c.ny, 0.5)
		s, err := AnalyzeLDL(a, c.ord)
		if err != nil {
			t.Fatal(err)
		}
		if c.width1 {
			s.buildSupernodes(1, false, true)
			if s.super.nsn != s.n {
				t.Fatalf("width-1 partition has %d supernodes, want %d", s.super.nsn, s.n)
			}
		}
		s.setSupernodal(true)
		f, err := s.Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		const k = 5
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
		got := make([]float64, a.N)
		want := make([]float64, a.N)
		for r := range bs {
			solveGatherOracle(f, want, bs[r])
			f.Solve(got, bs[r])
			for i := range want {
				wb := math.Float64bits(want[i])
				if math.Float64bits(got[i]) != wb {
					t.Fatalf("%dx%d %s width1=%v rhs %d: Solve x[%d]=%g oracle %g",
						c.nx, c.ny, ordName[c.ord], c.width1, r, i, got[i], want[i])
				}
				if math.Float64bits(xs[r][i]) != wb {
					t.Fatalf("%dx%d %s width1=%v rhs %d: SolveBatch x[%d]=%g oracle %g",
						c.nx, c.ny, ordName[c.ord], c.width1, r, i, xs[r][i], want[i])
				}
			}
		}
	}
}
