package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Factorize when a pivot is not
// strictly positive — the input is not SPD and the factorization (valid
// only for the positive definite RC-network systems this package targets)
// cannot continue.
var ErrNotPositiveDefinite = errors.New("mat: matrix not positive definite")

// LDLSymbolic is the reusable symbolic analysis of a sparse LDLᵀ
// factorization: the fill-reducing permutation, the elimination tree and
// the fill pattern of L, all of which depend only on the sparsity
// structure. One analysis serves every numeric factorization of matrices
// sharing that structure (the thermal solver re-factors the same Laplacian
// whenever the coolant flow setting or the time step changes).
//
// A symbolic object carries the scratch buffers of Factorize and Solve, so
// neither allocates; consequently it must not be used from more than one
// goroutine at a time. (The supernodal kernels fork their own subtree
// workers inside one call, each with its own slice of that scratch.)
type LDLSymbolic struct {
	n      int
	nnzA   int    // stored entries of the analyzed matrix (structure check)
	fprint uint64 // fingerprint of the analyzed sparsity pattern (Matches)

	perm []int // perm[k] = original index of the node eliminated k-th
	pinv []int // pinv[perm[k]] = k

	// Upper triangle of the permuted matrix PAPᵀ in compressed-column
	// form: column k holds rows i ≤ k. csrc maps each entry to its index
	// in the Val array of the original CSR, so numeric factorization
	// reads fresh values without re-permuting the matrix.
	cp, ci, csrc []int

	parent []int   // elimination tree
	lp     []int   // column pointers of L (len n+1)
	li     []int32 // row indices of L (len nnz(L)); filled by AnalyzeLDL
	// (int32 halves the index traffic of the two solve sweeps, the
	// per-tick hot path; 2³¹ nodes is far beyond any grid here)

	// Supernode partition and padded panel structure (immutable, shared
	// by Clone); superOn selects the dense-panel kernels.
	super   *superState
	superOn bool

	// Scratch, each buffer grown on first use (a Clone starts with none).
	y       []float64
	pattern []int
	flag    []int
	lnz     []int
	w       []float64      // Solve permuted work vector
	wb      []float64      // SolveBatch panel, grown to n·k on demand
	sw      []superScratch // supernodal kernels: one scratch per subtree worker
	flog    []float64      // supernodal forward sweep: the task supernodes' above-root accumulators
	fork    superFork      // supernodal kernels: fork-join state of the subtree tasks
	sbacc   []float64      // supernodal batch backward accumulator (one lane row), grown on demand
	sbtmp   []float64      // supernodal batch below-row accumulator / gather, grown on demand
}

// LDLNumeric holds the numeric factors of one matrix: PAPᵀ = L·D·Lᵀ with
// unit lower-triangular L (pattern in the shared LDLSymbolic) and positive
// diagonal D.
type LDLNumeric struct {
	s    *LDLSymbolic
	lx   []float64
	d    []float64
	invd []float64
	// super records the layout lx was factorized in (dense supernodal
	// panels vs scalar columns); Solve dispatches on it, and Factorize
	// reallocates when the symbolic mode has changed since.
	super bool
}

// View returns a factor that solves through f's values with s's scratch:
// the numeric arrays (L, D, D⁻¹) are shared, not copied, so any number of
// clones of one analysis can solve through one factorization
// concurrently — each through its own view. s must be f's analysis or a
// Clone of it in the same kernel mode; View panics otherwise (the panel
// and column layouts of L are not interchangeable). The factor must not
// be handed back to Factorize for reuse while views of it are live.
func (f *LDLNumeric) View(s *LDLSymbolic) *LDLNumeric {
	if s.n != f.s.n || s.NNZL() != f.s.NNZL() || (s.n > 0 && &s.lp[0] != &f.s.lp[0]) {
		panic("mat: LDL View through a different symbolic analysis")
	}
	if s.superOn != f.super {
		panic("mat: LDL View kernel mode mismatch")
	}
	return &LDLNumeric{s: s, lx: f.lx, d: f.d, invd: f.invd, super: f.super}
}

// N returns the system dimension.
func (s *LDLSymbolic) N() int { return s.n }

// Clone returns a symbolic analysis that shares the immutable products of
// AnalyzeLDL — the fill-reducing permutation, the permuted upper triangle,
// the elimination tree, the complete pattern of L (column pointers and
// row indices), the supernode partition and its subtree schedule — and
// copies the kernel-mode flag, but owns its scratch buffers. The clone
// can therefore factorize and solve concurrently with the original (and
// with other clones), which is what lets one expensive analysis serve
// every model of a shared platform. Cloning allocates only the header:
// the ordering and symbolic passes are not repeated, and each scratch
// buffer is grown on the clone's first use of the call that needs it.
func (s *LDLSymbolic) Clone() *LDLSymbolic {
	return &LDLSymbolic{
		n:      s.n,
		nnzA:   s.nnzA,
		fprint: s.fprint,
		perm:   s.perm,
		pinv:   s.pinv,
		cp:     s.cp, ci: s.ci, csrc: s.csrc,
		parent:  s.parent,
		lp:      s.lp,
		li:      s.li,
		super:   s.super,
		superOn: s.superOn,
	}
}

// NNZL returns the stored entry count of the L factor (fill diagnostics;
// excludes the unit diagonal and D).
func (s *LDLSymbolic) NNZL() int { return s.lp[s.n] }

// Matches reports whether a has the sparsity structure this analysis was
// performed for: dimension, stored-entry count and a fingerprint of the
// actual pattern (two grids can agree on n and nnz — e.g. an nx×ny vs
// ny×nx discretization — while their adjacency differs; factorizing
// through the wrong pattern would silently scatter entries to the wrong
// slots, so the pattern itself is checked).
func (s *LDLSymbolic) Matches(a *CSR) bool {
	return a.N == s.n && a.NNZ() == s.nnzA && structFingerprint(a) == s.fprint
}

// structFingerprint hashes a matrix's sparsity pattern (FNV-1a over the
// row pointers and column indices; values are ignored).
func structFingerprint(a *CSR) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, p := range a.RowPtr {
		h = (h ^ uint64(p)) * prime
	}
	for _, c := range a.Col {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// AnalyzeLDL performs the symbolic analysis of a: it computes the
// fill-reducing ordering, the elimination tree of the permuted matrix and
// the exact per-column fill counts, and allocates the pattern of L. The
// matrix must be structurally symmetric with a full diagonal (the
// assembled RC Laplacians are); SPD-ness itself is only detected during
// Factorize.
func AnalyzeLDL(a *CSR, ord Ordering) (*LDLSymbolic, error) {
	n := a.N
	s := &LDLSymbolic{
		n:      n,
		nnzA:   a.NNZ(),
		fprint: structFingerprint(a),
		perm:   ord.Permutation(a),
	}
	if len(s.perm) != n {
		return nil, fmt.Errorf("mat: ordering produced %d of %d nodes", len(s.perm), n)
	}
	s.pinv = make([]int, n)
	for k, v := range s.perm {
		s.pinv[v] = k
	}

	// Build the upper triangle of PAPᵀ by columns. Each stored symmetric
	// pair (r,c)/(c,r) contributes exactly one entry (the one whose
	// permuted row is ≤ its permuted column), the diagonal once.
	s.cp = make([]int, n+1)
	for r := 0; r < n; r++ {
		pr := s.pinv[r]
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if pc := s.pinv[a.Col[k]]; pr <= pc {
				s.cp[pc+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		s.cp[k+1] += s.cp[k]
	}
	nnzU := s.cp[n]
	s.ci = make([]int, nnzU)
	s.csrc = make([]int, nnzU)
	next := make([]int, n)
	copy(next, s.cp[:n])
	for r := 0; r < n; r++ {
		pr := s.pinv[r]
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if pc := s.pinv[a.Col[k]]; pr <= pc {
				s.ci[next[pc]] = pr
				s.csrc[next[pc]] = k
				next[pc]++
			}
		}
	}

	// Elimination tree and exact column counts of L (up-looking symbolic
	// pass): row k's pattern is the union of the etree paths from the
	// above-diagonal entries of column k up to k.
	s.parent = make([]int, n)
	flag := make([]int, n)
	lnz := make([]int, n)
	for k := 0; k < n; k++ {
		s.parent[k] = -1
		flag[k] = k
		for p := s.cp[k]; p < s.cp[k+1]; p++ {
			for i := s.ci[p]; flag[i] != k; i = s.parent[i] {
				if s.parent[i] < 0 {
					s.parent[i] = k
				}
				lnz[i]++
				flag[i] = k
			}
		}
	}
	s.lp = make([]int, n+1)
	for k := 0; k < n; k++ {
		s.lp[k+1] = s.lp[k] + lnz[k]
	}

	// Fill the row indices of L with a second reach pass. Row k of L
	// appends k to every column i in its pattern, and successive k are
	// appended in ascending order — exactly the positions the up-looking
	// numeric factorization writes — so the pattern becomes immutable and
	// Clone can share it. lnz doubles as the per-column cursor.
	s.li = make([]int32, s.lp[n])
	clear(lnz)
	for k := 0; k < n; k++ {
		flag[k] = k
		for p := s.cp[k]; p < s.cp[k+1]; p++ {
			for i := s.ci[p]; flag[i] != k; i = s.parent[i] {
				s.li[s.lp[i]+lnz[i]] = int32(k)
				lnz[i]++
				flag[i] = k
			}
		}
	}

	// Supernode partition (dense-panel layer): computed once here from
	// the finished etree/pattern, shared by Clone. The dense-panel
	// kernels are selected exactly when the partition is profitable; only
	// then is its index structure kept.
	s.buildSupernodes(maxSuperWidth, true, false)
	s.superOn = s.SupernodalProfitable()
	return s, nil
}

// Factorize computes the numeric LDLᵀ factors of a, which must have
// exactly the sparsity structure that was analyzed (the thermal solver
// rewrites values — the diagonal — on the fixed-structure system matrix).
// f is reused when non-nil (its buffers are overwritten); pass nil to
// allocate a fresh factor. Returns ErrNotPositiveDefinite (wrapped) when a
// pivot is ≤ 0.
func (s *LDLSymbolic) Factorize(a *CSR, f *LDLNumeric) (*LDLNumeric, error) {
	if a.N != s.n || a.NNZ() != s.nnzA {
		return nil, fmt.Errorf("mat: Factorize structure mismatch: got %d×%d nnz %d, analyzed %d×%d nnz %d",
			a.N, a.N, a.NNZ(), s.n, s.n, s.nnzA)
	}
	if f == nil || f.s != s || f.super != s.superOn {
		nx := s.lp[s.n]
		if s.superOn {
			nx = s.super.panelNNZ
		}
		f = &LDLNumeric{
			s:     s,
			lx:    make([]float64, nx),
			d:     make([]float64, s.n),
			invd:  make([]float64, s.n),
			super: s.superOn,
		}
	}
	if s.superOn {
		return s.factorizeSuper(a, f)
	}
	n := s.n
	if len(s.y) != n {
		s.y = make([]float64, n)
		s.pattern = make([]int, n)
		s.flag = make([]int, n)
		s.lnz = make([]int, n)
	}
	y, pattern, flag, lnz := s.y, s.pattern, s.flag, s.lnz
	for k := 0; k < n; k++ {
		// Pattern of row k of L via elimination-tree reach, values of
		// column k of the permuted upper triangle scattered into y.
		top := n
		flag[k] = k
		lnz[k] = 0
		for p := s.cp[k]; p < s.cp[k+1]; p++ {
			i := s.ci[p]
			y[i] += a.Val[s.csrc[p]]
			ln := 0
			for ; flag[i] != k; i = s.parent[i] {
				pattern[ln] = i
				ln++
				flag[i] = k
			}
			for ln > 0 {
				ln--
				top--
				pattern[top] = pattern[ln]
			}
		}
		// Sparse triangular solve across the pattern, in elimination
		// order (the stack holds it topologically sorted).
		dk := y[k]
		y[k] = 0
		for t := top; t < n; t++ {
			i := pattern[t]
			yi := y[i]
			y[i] = 0
			lki := yi * f.invd[i]
			p2 := s.lp[i] + lnz[i]
			for p := s.lp[i]; p < p2; p++ {
				y[s.li[p]] -= f.lx[p] * yi
			}
			f.lx[p2] = lki
			lnz[i]++
			dk -= lki * yi
		}
		if dk <= 0 {
			// Leave y clean for the next attempt.
			for i := range y {
				y[i] = 0
			}
			return nil, fmt.Errorf("%w: pivot %g at permuted index %d", ErrNotPositiveDefinite, dk, k)
		}
		f.d[k] = dk
		f.invd[k] = 1 / dk
	}
	return f, nil
}

// MinPivot returns the smallest entry of D (NaN if any entry is NaN): the
// factored matrix is positive definite exactly when it is > 0.
func (f *LDLNumeric) MinPivot() float64 {
	mn := math.Inf(1)
	for _, v := range f.d {
		mn = min(mn, v)
	}
	return mn
}

// Solve computes x = A⁻¹·b through the cached factors: permute, one
// forward sweep through L, the diagonal scaling, one backward sweep
// through Lᵀ, permute back. x and b must have length N and may alias. It
// never allocates — this is the per-tick hot path of the transient
// thermal solver.
func (f *LDLNumeric) Solve(x, b []float64) {
	s := f.s
	n := s.n
	if len(x) != n || len(b) != n {
		panic("mat: LDL Solve dimension mismatch")
	}
	if len(s.w) != n {
		s.w = make([]float64, n)
	}
	w := s.w
	for k := 0; k < n; k++ {
		w[k] = b[s.perm[k]]
	}
	if f.super {
		f.solveSuper()
		for k := 0; k < n; k++ {
			x[s.perm[k]] = w[k]
		}
		return
	}
	for j := 0; j < n; j++ {
		wj := w[j]
		if wj == 0 {
			continue
		}
		for p := s.lp[j]; p < s.lp[j+1]; p++ {
			w[s.li[p]] -= f.lx[p] * wj
		}
	}
	for j := 0; j < n; j++ {
		w[j] *= f.invd[j]
	}
	for j := n - 1; j >= 0; j-- {
		wj := w[j]
		for p := s.lp[j]; p < s.lp[j+1]; p++ {
			wj -= f.lx[p] * w[s.li[p]]
		}
		w[j] = wj
	}
	for k := 0; k < n; k++ {
		x[s.perm[k]] = w[k]
	}
}
