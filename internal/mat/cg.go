package mat

import (
	"errors"
	"fmt"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without reaching the requested tolerance.
var ErrNoConvergence = errors.New("mat: iterative solver did not converge")

// CGOptions configures the conjugate-gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖b-Ax‖/‖b‖. Zero means 1e-10.
	Tol float64
	// MaxIter bounds iterations. Zero means 4·N.
	MaxIter int
}

// CGResult reports solver diagnostics.
type CGResult struct {
	Iterations int
	Residual   float64
}

// SolveCG solves A·x = b for symmetric positive definite A by
// Jacobi-preconditioned conjugate gradient. x is the starting guess and
// holds the solution on return. It is the independent reference the
// direct LDLᵀ solver is tested against, not a production path: it
// allocates its scratch on every call.
func SolveCG(a *CSR, x, b []float64, opt CGOptions) (CGResult, error) {
	n := a.N
	if len(x) != n || len(b) != n {
		panic("mat: SolveCG dimension mismatch")
	}
	tol := opt.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 4 * n
	}

	invDiag := make([]float64, n)
	a.Diagonal(invDiag)
	for i, d := range invDiag {
		if d <= 0 {
			return CGResult{}, fmt.Errorf("mat: non-positive diagonal %g at %d; matrix not SPD", d, i)
		}
		invDiag[i] = 1 / d
	}
	r, z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	precond := func() {
		for i := range z {
			z[i] = invDiag[i] * r[i]
		}
	}

	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		// Solution of Ax=0 for SPD A is x=0.
		for i := range x {
			x[i] = 0
		}
		return CGResult{Iterations: 0, Residual: 0}, nil
	}

	precond()
	copy(p, z)
	rz := Dot(r, z)

	res := Norm2(r) / bnorm
	var it int
	for it = 0; it < maxIter && res > tol; it++ {
		a.MulVec(ap, p)
		pap := Dot(p, ap)
		if pap <= 0 {
			return CGResult{Iterations: it, Residual: res},
				fmt.Errorf("mat: p·Ap = %g ≤ 0; matrix not SPD", pap)
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		precond()
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		res = Norm2(r) / bnorm
	}
	if res > tol {
		return CGResult{Iterations: it, Residual: res}, ErrNoConvergence
	}
	return CGResult{Iterations: it, Residual: res}, nil
}
