package mat

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randSPD builds a random sparse symmetric diagonally dominant matrix
// (hence SPD) with roughly extra off-diagonal pairs per row.
func randSPD(n int, extra int, rng *rand.Rand) *CSR {
	b := NewBuilder(n)
	type edge struct{ i, j int }
	seen := map[edge]bool{}
	for i := 0; i < n; i++ {
		b.Add(i, i, 0)
	}
	// A connected backbone plus random extra edges.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		seen[edge{j, i}] = true
	}
	for k := 0; k < n*extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		seen[edge{i, j}] = true
	}
	diag := make([]float64, n)
	for e := range seen {
		v := -(0.1 + rng.Float64())
		b.Add(e.i, e.j, v)
		b.Add(e.j, e.i, v)
		diag[e.i] += -v
		diag[e.j] += -v
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, diag[i]+0.5+rng.Float64())
	}
	return b.Build()
}

// gridLaplacian builds the 5-point Laplacian of an nx×ny grid plus a
// positive diagonal shift — the shape of the thermal backward-Euler
// systems.
func gridLaplacian(nx, ny int, shift float64) *CSR {
	n := nx * ny
	b := NewBuilder(n)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			b.Add(id(x, y), id(x, y), shift)
			if x+1 < nx {
				b.Add(id(x, y), id(x, y), 1)
				b.Add(id(x+1, y), id(x+1, y), 1)
				b.Add(id(x, y), id(x+1, y), -1)
				b.Add(id(x+1, y), id(x, y), -1)
			}
			if y+1 < ny {
				b.Add(id(x, y), id(x, y), 1)
				b.Add(id(x, y+1), id(x, y+1), 1)
				b.Add(id(x, y), id(x, y+1), -1)
				b.Add(id(x, y+1), id(x, y), -1)
			}
		}
	}
	return b.Build()
}

func TestLDLSolveMatchesLURandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderND, OrderAuto} {
		for trial := 0; trial < 6; trial++ {
			n := 5 + rng.Intn(60)
			a := randSPD(n, 1+rng.Intn(3), rng)
			s, err := AnalyzeLDL(a, ord)
			if err != nil {
				t.Fatalf("ord %v: %v", ord, err)
			}
			f, err := s.Factorize(a, nil)
			if err != nil {
				t.Fatalf("ord %v: %v", ord, err)
			}
			bvec := make([]float64, n)
			for i := range bvec {
				bvec[i] = rng.NormFloat64()
			}
			want, err := SolveLU(FromCSR(a), bvec)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, n)
			f.Solve(x, bvec)
			for i := range x {
				if d := math.Abs(x[i] - want[i]); d > 1e-8*(1+math.Abs(want[i])) {
					t.Fatalf("ord %v n=%d: x[%d]=%g want %g", ord, n, i, x[i], want[i])
				}
			}
			if res := residual(a, x, bvec); res > 1e-10 {
				t.Fatalf("ord %v n=%d: residual %g", ord, n, res)
			}
		}
	}
}

func TestLDLGridAgainstCG(t *testing.T) {
	a := gridLaplacian(30, 25, 2.5)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	bvec := make([]float64, a.N)
	for i := range bvec {
		bvec[i] = rng.Float64()
	}
	xd := make([]float64, a.N)
	f.Solve(xd, bvec)
	xcg := make([]float64, a.N)
	if _, err := SolveCG(a, xcg, bvec, CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	for i := range xd {
		if d := math.Abs(xd[i] - xcg[i]); d > 1e-8 {
			t.Fatalf("node %d: direct %g vs CG %g", i, xd[i], xcg[i])
		}
	}
}

func TestLDLMinPivot(t *testing.T) {
	a := gridLaplacian(12, 10, 2.5)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := f.MinPivot(); !(p > 0) || p != slices.Min(f.d) {
		t.Errorf("SPD factor: MinPivot = %g, smallest pivot %g", p, slices.Min(f.d))
	}
	if p := (&LDLNumeric{d: []float64{2, 0.5, 3}}).MinPivot(); p != 0.5 {
		t.Errorf("MinPivot = %g, want 0.5", p)
	}
	if p := (&LDLNumeric{d: []float64{2, math.NaN(), 0.5}}).MinPivot(); !math.IsNaN(p) {
		t.Errorf("MinPivot with a NaN pivot = %g, want NaN", p)
	}
}

// TestLDLRefactorize checks the workspace-reuse path: after the diagonal
// values change (the thermal solver's flow/dt updates), refactorizing into
// the same numeric object must match a fresh factorization.
func TestLDLRefactorize(t *testing.T) {
	a := gridLaplacian(12, 9, 1)
	s, err := AnalyzeLDL(a, OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the diagonal (same structure).
	for r := 0; r < a.N; r++ {
		a.AddAt(r, r, 0.5+float64(r%7))
	}
	f, err = s.Factorize(a, f)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.d {
		if f.d[i] != fresh.d[i] {
			t.Fatalf("d[%d]=%g differs from fresh %g after reuse", i, f.d[i], fresh.d[i])
		}
	}
	for i := range f.lx {
		if f.lx[i] != fresh.lx[i] {
			t.Fatalf("lx[%d] differs after reuse", i)
		}
	}
	bvec := make([]float64, a.N)
	for i := range bvec {
		bvec[i] = float64(i%5) - 2
	}
	x := make([]float64, a.N)
	f.Solve(x, bvec)
	if res := residual(a, x, bvec); res > 1e-12 {
		t.Fatalf("residual %g after refactorize", res)
	}
}

func TestLDLSolveAliasing(t *testing.T) {
	a := gridLaplacian(8, 8, 1.5)
	s, err := AnalyzeLDL(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	bvec := make([]float64, a.N)
	for i := range bvec {
		bvec[i] = math.Sin(float64(i))
	}
	want := make([]float64, a.N)
	f.Solve(want, bvec)
	x := append([]float64(nil), bvec...)
	f.Solve(x, x) // aliased
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %g vs %g", i, x[i], want[i])
		}
	}
}

func TestLDLNotPositiveDefinite(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(1, 1, -2) // indefinite
	b.Add(2, 2, 1)
	b.Add(0, 1, 0.1)
	b.Add(1, 0, 0.1)
	a := b.Build()
	s, err := AnalyzeLDL(a, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Factorize(a, nil); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
	// A failed factorization leaves the symbolic's scratch clean: the
	// same analysis then factors an SPD system with the same structure
	// bit-identically to a fresh one.
	good := gridLaplacian(30, 20, 2)
	bad := gridLaplacian(30, 20, 2)
	bad.AddAt(215, 215, -1e6)
	s, err = AnalyzeLDL(good, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Factorize(bad, nil); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("grid: got %v, want ErrNotPositiveDefinite", err)
	}
	f, err := s.Factorize(good, nil)
	if err != nil {
		t.Fatalf("factorize after failure: %v", err)
	}
	fresh, err := AnalyzeLDL(good, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Factorize(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.d {
		if f.d[i] != want.d[i] {
			t.Fatalf("d[%d] = %g after failure, fresh analysis %g", i, f.d[i], want.d[i])
		}
	}
}

func TestLDLStructureMismatch(t *testing.T) {
	a := gridLaplacian(5, 5, 1)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	other := gridLaplacian(6, 5, 1)
	if _, err := s.Factorize(other, nil); err == nil {
		t.Fatal("factorizing a different structure must fail")
	}
}

// TestLDLHotPathAllocFree pins the per-tick contract: refactorization into
// a reused numeric object and every solve allocate nothing.
func TestLDLHotPathAllocFree(t *testing.T) {
	a := gridLaplacian(20, 16, 2)
	s, err := AnalyzeLDL(a, OrderAuto)
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
	x := make([]float64, a.N)
	if allocs := testing.AllocsPerRun(10, func() { f.Solve(x, bvec) }); allocs != 0 {
		t.Errorf("Solve allocates %v objects, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Factorize(a, f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("reusing Factorize allocates %v objects, want 0", allocs)
	}
}

// TestMatchesRejectsDifferentPattern: a matrix with the same dimension
// and nonzero count but a different sparsity pattern must not match the
// analysis (a 4-node path vs a 4-node star both have n=4, nnz=10).
func TestMatchesRejectsDifferentPattern(t *testing.T) {
	build := func(edges [][2]int) *CSR {
		b := NewBuilder(4)
		for i := 0; i < 4; i++ {
			b.Add(i, i, 4)
		}
		for _, e := range edges {
			b.Add(e[0], e[1], -1)
			b.Add(e[1], e[0], -1)
		}
		return b.Build()
	}
	path := build([][2]int{{0, 1}, {1, 2}, {2, 3}})
	star := build([][2]int{{1, 0}, {1, 2}, {1, 3}})
	s, err := AnalyzeLDL(path, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Matches(path) {
		t.Error("analysis must match its own matrix")
	}
	if path.NNZ() != star.NNZ() {
		t.Fatalf("test premise broken: nnz %d vs %d", path.NNZ(), star.NNZ())
	}
	if s.Matches(star) {
		t.Error("same-n same-nnz different-pattern matrix must not match")
	}
	if !s.Clone().Matches(path) {
		t.Error("clone must carry the pattern fingerprint")
	}
}

// TestLDLViewSharedFactor checks that clones of one analysis solve
// through one factorization concurrently, each through its own view,
// bit-identically to the factor itself, in both kernel modes; and that a
// view refuses a mismatched kernel mode or a different analysis.
func TestLDLViewSharedFactor(t *testing.T) {
	a := gridLaplacian(24, 20, 0.7)
	for _, super := range []bool{false, true} {
		s, err := AnalyzeLDL(a, OrderND)
		if err != nil {
			t.Fatal(err)
		}
		s.setSupernodal(super)
		f, err := s.Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		bvec := make([]float64, a.N)
		for i := range bvec {
			bvec[i] = math.Cos(float64(3 * i))
		}
		want := make([]float64, a.N)
		f.Solve(want, bvec)

		const clones = 4
		got := make([][]float64, clones)
		done := make(chan int)
		for c := range clones {
			v := f.View(s.Clone())
			go func() {
				x := make([]float64, a.N)
				for range 20 {
					v.Solve(x, bvec)
				}
				got[c] = x
				done <- c
			}()
		}
		for range clones {
			<-done
		}
		for c, x := range got {
			for i := range x {
				if x[i] != want[i] {
					t.Fatalf("super=%v clone %d: x[%d]=%g, factor %g", super, c, i, x[i], want[i])
				}
			}
		}

		mismatch := s.Clone()
		mismatch.setSupernodal(!super)
		if mismatch.Supernodal() != super {
			mustPanic(t, "kernel mode mismatch", func() { f.View(mismatch) })
		}
		other, err := AnalyzeLDL(a, OrderND)
		if err != nil {
			t.Fatal(err)
		}
		other.setSupernodal(super)
		mustPanic(t, "different analysis", func() { f.View(other) })
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: View did not panic", what)
		}
	}()
	fn()
}
