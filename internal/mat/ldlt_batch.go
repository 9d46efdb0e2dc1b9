package mat

// SolveBatch solves the k = len(xs) systems A·xs[r] = bs[r] through the
// cached factors. On a scalar-column factor the right-hand sides are
// solved in pairs (the last one of an odd k by Solve): each pair is
// packed into an n×2 panel in permuted order, so the two triangular
// sweeps stream the factor's values and indices once per two right-hand
// sides, and keep the pair's two values of the current column (forward)
// or its two accumulators (backward) in registers. Per lane the
// operation sequence is Solve's, so results are bit-identical to
// sequential Solve calls, except that the forward sweep does not
// reproduce Solve's skip of exact-zero multipliers. Subtracting the
// skipped ±0 products changes a result bit only when an accumulator
// holds -0 — never the case for the strictly positive thermal systems
// this package serves.
//
// A supernodal factor has no separate batch kernel: SolveBatch runs
// Solve once per right-hand side, so each lane is Solve's result by
// construction and every solve forks its subtree tasks like a lone one.
//
// Each xs[r]/bs[r] must have length N; xs[r] may alias bs[r]. Like
// Solve, SolveBatch allocates nothing in steady state: the 2·n panel
// scratch lives on the symbolic object and is grown once.
func (f *LDLNumeric) SolveBatch(xs, bs [][]float64) {
	s := f.s
	n := s.n
	k := len(xs)
	if len(bs) != k {
		panic("mat: LDL SolveBatch xs/bs count mismatch")
	}
	for r := 0; r < k; r++ {
		if len(xs[r]) != n || len(bs[r]) != n {
			panic("mat: LDL SolveBatch dimension mismatch")
		}
	}
	r := 0
	if !f.super {
		if k >= 2 && len(s.wb) != n {
			s.wb = make([][2]float64, n)
		}
		for ; r+1 < k; r += 2 {
			f.solvePair(xs[r], xs[r+1], bs[r], bs[r+1])
		}
	}
	for ; r < k; r++ {
		f.Solve(xs[r], bs[r])
	}
}

// solvePair solves two right-hand sides through the scalar factor in
// the s.wb panel, row i holding the two lanes of permuted node i.
func (f *LDLNumeric) solvePair(x0, x1, b0, b1 []float64) {
	s := f.s
	wb := s.wb
	lp, li, lx := s.lp, s.li, f.lx

	for i, src := range s.perm {
		wb[i] = [2]float64{b0[src], b1[src]}
	}
	// Forward sweep, scatter form over columns (Solve's order).
	for j := range wb {
		w0, w1 := wb[j][0], wb[j][1]
		rows, ls := li[lp[j]:lp[j+1]], lx[lp[j]:lp[j+1]]
		for p, i := range rows {
			l := ls[p]
			d := &wb[i]
			d[0] -= l * w0
			d[1] -= l * w1
		}
	}
	// Diagonal scaling.
	invd := f.invd[:len(wb)]
	for j := range wb {
		d, iv := &wb[j], invd[j]
		d[0] *= iv
		d[1] *= iv
	}
	// Backward sweep, gather form over columns descending.
	for j := len(wb) - 1; j >= 0; j-- {
		a0, a1 := wb[j][0], wb[j][1]
		rows, ls := li[lp[j]:lp[j+1]], lx[lp[j]:lp[j+1]]
		for p, i := range rows {
			l := ls[p]
			v := &wb[i]
			a0 -= l * v[0]
			a1 -= l * v[1]
		}
		wb[j] = [2]float64{a0, a1}
	}
	for i, dst := range s.perm {
		x0[dst], x1[dst] = wb[i][0], wb[i][1]
	}
}
