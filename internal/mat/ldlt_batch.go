package mat

// SolveBatch solves the k = len(xs) systems A·xs[r] = bs[r] through the
// cached factors. On a scalar-column factor the right-hand sides are
// packed into a node-major panel (all k values of one node contiguous),
// so the two triangular sweeps stream the factor's values and indices
// once for the whole batch instead of once per RHS — the index and L
// traffic that dominates a single Solve is amortized k ways. Per-RHS
// results are bit-identical to sequential Solve calls, except that the
// blocked forward sweep does not reproduce the scalar Solve's skip of
// exact-zero multipliers. Subtracting the skipped ±0 products changes a
// result bit only when an accumulator holds -0 — never the case for the
// strictly positive thermal systems this package serves.
//
// A supernodal factor has no separate batch kernel: SolveBatch runs
// Solve once per right-hand side, so each lane is Solve's result by
// construction and every solve forks its subtree tasks like a lone one.
//
// Each xs[r]/bs[r] must have length N; xs[r] may alias bs[r]. Like
// Solve, SolveBatch allocates nothing in steady state: the scalar panel
// scratch lives on the symbolic object and is grown once per high-water
// k.
func (f *LDLNumeric) SolveBatch(xs, bs [][]float64) {
	s := f.s
	n := s.n
	k := len(xs)
	if len(bs) != k {
		panic("mat: LDL SolveBatch xs/bs count mismatch")
	}
	if k == 0 {
		return
	}
	if k == 1 {
		f.Solve(xs[0], bs[0])
		return
	}
	for r := 0; r < k; r++ {
		if len(xs[r]) != n || len(bs[r]) != n {
			panic("mat: LDL SolveBatch dimension mismatch")
		}
	}
	if f.super {
		for r := range xs {
			f.Solve(xs[r], bs[r])
		}
		return
	}
	if cap(s.wb) < n*k {
		s.wb = make([]float64, n*k)
	}
	wb := s.wb[: n*k : n*k]

	// Pack: permuted, node-major.
	for i := 0; i < n; i++ {
		src := s.perm[i]
		row := wb[i*k : i*k+k]
		for r := 0; r < k; r++ {
			row[r] = bs[r][src]
		}
	}
	// Forward sweep, scatter form over columns (Solve's order).
	for j := 0; j < n; j++ {
		wj := wb[j*k : j*k+k]
		for p := s.lp[j]; p < s.lp[j+1]; p++ {
			lx := f.lx[p]
			dst := wb[int(s.li[p])*k:]
			dst = dst[:k:k]
			for r := range dst {
				dst[r] -= lx * wj[r]
			}
		}
	}
	// Diagonal scaling.
	for j := 0; j < n; j++ {
		iv := f.invd[j]
		row := wb[j*k : j*k+k]
		for r := range row {
			row[r] *= iv
		}
	}
	// Backward sweep, gather form over columns descending.
	for j := n - 1; j >= 0; j-- {
		row := wb[j*k : j*k+k]
		for p := s.lp[j]; p < s.lp[j+1]; p++ {
			lx := f.lx[p]
			src := wb[int(s.li[p])*k:]
			src = src[:k:k]
			for r := range row {
				row[r] -= lx * src[r]
			}
		}
	}
	// Unpack.
	for i := 0; i < n; i++ {
		dst := s.perm[i]
		row := wb[i*k : i*k+k]
		for r := 0; r < k; r++ {
			xs[r][dst] = row[r]
		}
	}
}
