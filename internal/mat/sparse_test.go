package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// residual returns the relative residual ‖b − m·x‖/‖b‖.
func residual(m *CSR, x, b []float64) float64 {
	ax := make([]float64, m.N)
	m.MulVec(ax, x)
	for i := range ax {
		ax[i] = b[i] - ax[i]
	}
	return Norm2(ax) / Norm2(b)
}

// laplacian1D builds the classic tridiagonal SPD matrix for an n-point
// 1-D diffusion problem with Dirichlet ends.
func laplacian1D(n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2.5)
	b.Add(1, 0, -1)
	m := b.Build()
	if got := m.At(0, 0); got != 3.5 {
		t.Errorf("duplicate sum = %v, want 3.5", got)
	}
	if got := m.At(1, 0); got != -1 {
		t.Errorf("At(1,0) = %v, want -1", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("missing entry = %v, want 0", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range Add")
		}
	}()
	NewBuilder(2).Add(2, 0, 1)
}

func TestCSRSetAndAddAt(t *testing.T) {
	m := laplacian1D(3)
	m.Set(1, 1, 5)
	if got := m.At(1, 1); got != 5 {
		t.Errorf("after Set At(1,1) = %v", got)
	}
	m.AddAt(1, 1, 1)
	if got := m.At(1, 1); got != 6 {
		t.Errorf("after AddAt At(1,1) = %v", got)
	}
}

func TestCSRSetPanicsOutsideStructure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Set outside structure")
		}
	}()
	laplacian1D(3).Set(0, 2, 1)
}

func TestMulVecKnown(t *testing.T) {
	m := laplacian1D(3)
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	m.MulVec(dst, x)
	want := []float64{0, 0, 4} // [2-2, -1+4-3, -2+6]
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-14 {
			t.Errorf("MulVec[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestDiagonal(t *testing.T) {
	m := laplacian1D(4)
	d := make([]float64, 4)
	m.Diagonal(d)
	for i, v := range d {
		if v != 2 {
			t.Errorf("diag[%d] = %v, want 2", i, v)
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	if !laplacian1D(5).IsSymmetric(0) {
		t.Error("laplacian should be symmetric")
	}
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	if b.Build().IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

func TestSolveCGAgainstLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 20, 100} {
		m := laplacian1D(n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		res, err := SolveCG(m, x, b, CGOptions{Tol: 1e-12})
		if err != nil {
			t.Fatalf("n=%d: CG error: %v (res %v)", n, err, res)
		}
		want, err := SolveLU(FromCSR(m), b)
		if err != nil {
			t.Fatalf("n=%d: LU error: %v", n, err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], want[i])
			}
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m := laplacian1D(10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i) // nonzero initial guess
	}
	res, err := SolveCG(m, x, make([]float64, 10), CGOptions{})
	if err != nil {
		t.Fatalf("CG error: %v", err)
	}
	if res.Residual != 0 {
		t.Errorf("residual = %v, want 0", res.Residual)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	n := 50
	m := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	cold := make([]float64, n)
	resCold, err := SolveCG(m, cold, b, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact answer should converge immediately.
	warm := append([]float64(nil), cold...)
	resWarm, err := SolveCG(m, warm, b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if resWarm.Iterations > 1 {
		t.Errorf("warm start took %d iterations (cold %d)", resWarm.Iterations, resCold.Iterations)
	}
}

func TestSolveCGRejectsNonSPD(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, -1)
	b.Add(1, 1, 1)
	m := b.Build()
	x := make([]float64, 2)
	if _, err := SolveCG(m, x, []float64{1, 1}, CGOptions{}); err == nil {
		t.Error("expected error for negative diagonal")
	}
}

func TestSolveCGNoConvergenceBudget(t *testing.T) {
	n := 200
	m := laplacian1D(n)
	bvec := make([]float64, n)
	for i := range bvec {
		bvec[i] = 1
	}
	x := make([]float64, n)
	_, err := SolveCG(m, x, bvec, CGOptions{Tol: 1e-14, MaxIter: 2})
	if err != ErrNoConvergence {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{3, 4}
	if got := Norm2(a); math.Abs(got-5) > 1e-14 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := NormInf([]float64{-7, 2}); got != 7 {
		t.Errorf("NormInf = %v, want 7", got)
	}
	y := []float64{1, 1}
	AXPY(2, a, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY = %v, want [7 9]", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestQuickCGSolvesRandomSPD(t *testing.T) {
	// Random diagonally dominant symmetric matrices are SPD; CG must solve
	// them to the requested tolerance.
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		b := NewBuilder(n)
		rowSum := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.2 {
					v := -r.Float64()
					b.Add(i, j, v)
					b.Add(j, i, v)
					rowSum[i] += -v
					rowSum[j] += -v
				}
			}
		}
		for i := 0; i < n; i++ {
			b.Add(i, i, rowSum[i]+1+r.Float64())
		}
		m := b.Build()
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		if _, err := SolveCG(m, x, rhs, CGOptions{Tol: 1e-10}); err != nil {
			return false
		}
		// Verify the residual directly.
		ax := make([]float64, n)
		m.MulVec(ax, x)
		for i := range ax {
			ax[i] -= rhs[i]
		}
		return Norm2(ax) <= 1e-8*(1+Norm2(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
