package mat

import (
	"fmt"
	"slices"
)

// Supernodal LDLᵀ: dense-panel storage and blocked kernels.
//
// The RC-network Laplacians factor into an L whose columns come in long
// runs with near-identical structure. AnalyzeLDL amalgamates those runs
// into supernodes — maximal column ranges sharing one (padded) row set —
// and this file stores L as one contiguous column-major dense panel per
// supernode, replacing the scalar column-at-a-time kernels with blocked
// ones:
//
//   - Factorize becomes left-looking over supernodes: scatter the A
//     entries into the panel, subtract one dense rank-k Schur update per
//     descendant supernode, then run a small dense LDLᵀ on the panel.
//   - The forward solve is right-looking over supernodes: a dense
//     unit-lower triangular solve on the diagonal block, then one pass
//     down the panel's below-diagonal block (read once, contiguously, in
//     storage order) accumulating a value per below row, each subtracted
//     from its target once. The backward solve is the transposed pass:
//     gather the below rows, one dot product per column, then the
//     transposed diagonal solve.
//
// The win over the scalar path is locality: the per-entry row-index
// traffic of the scalar sweeps is amortized across a panel's width, and
// every inner loop runs over contiguous float64 slices.
//
// Relaxed amalgamation pads panels with entries outside the scalar fill
// pattern. Padded slots are structural zeros: every term that could flow
// into one has at least one exactly-zero factor, so by induction they
// stay ±0 through the numeric factorization and the blocked kernels
// compute the same values the scalar kernels do up to floating-point
// reassociation (the property tests pin ≤1e-9 relative on L/D).
//
// Determinism: each supernode's kernel runs a fixed loop nest over a
// fixed supernode order, so results are bit-identical run-to-run, and
// SolveBatch reproduces sequential supernodal Solve bit-for-bit.

const (
	// maxSuperWidth caps a supernode's column count: wider panels
	// amortize index traffic further but waste a w²/2 dead triangle and
	// grow the dense-update scratch quadratically.
	maxSuperWidth = 48
	// Relaxed amalgamation: a child merges into its parent when the
	// merged width stays within a tier and the padded fraction of the
	// merged panel stays below that tier's bound (small panels tolerate
	// more padding — the per-column overhead they avoid is larger).
	relaxWidth1, relaxPad1 = 8, 0.50
	relaxWidth2, relaxPad2 = 16, 0.30
	relaxPad3              = 0.15
	// supernodalMinN and supernodalMinMeanWidth gate the kernel pick:
	// below either bound the scalar kernels win (or the difference is
	// noise) and flipping modes would churn small-system results for
	// nothing.
	supernodalMinN         = 4096
	supernodalMinMeanWidth = 1.8
)

// superState is the supernode partition and its padded structure —
// immutable once built, shared by Clone like the rest of the symbolic
// analysis. When the scalar kernels are selected only the counts (nsn,
// panelNNZ, padNNZ) are kept.
type superState struct {
	nsn   int
	snPtr []int32 // len nsn+1; supernode s covers permuted columns snPtr[s]..snPtr[s+1]
	snOf  []int32 // len n; column → supernode

	// Padded row structure: supernode s's rows are
	// rows[rowPtr[s]:rowPtr[s+1]], ascending; the first width(s) entries
	// are the supernode's own columns, the rest its below-diagonal rows.
	rowPtr []int32
	rows   []int32

	// panelPtr[s] is the offset of s's dense panel in LDLNumeric.lx; the
	// panel is nr×w column-major (column stride nr), entries above the
	// diagonal dead.
	panelPtr []int

	// Update lists: the descendants whose below-diagonal rows intersect
	// s's columns, ascending. Descendant updSn[u]'s row-list positions
	// updLo[u]..updHi[u] fall inside s's columns; positions updHi[u]..nr
	// are strictly below them (all contained in s's row set — the
	// closure pass guarantees it). Only factorizeSuper reads them: the
	// solves stream each panel's own rows.
	updPtr []int32
	updSn  []int32
	updLo  []int32
	updHi  []int32

	// A-entry scatter: panel slot aOff[e] of supernode s takes
	// a.Val[aSrc[e]] for e in aPtr[s]..aPtr[s+1].
	aPtr []int32
	aOff []int32
	aSrc []int32

	maxNr    int // widest panel row count (scratch sizing)
	maxW     int // widest panel column count
	panelNNZ int // total stored panel floats (incl. padding + dead triangle)
	padNNZ   int // structurally-zero padded entries in the lower trapezoids
}

// buildSupernodes computes the supernode partition and its padded
// structure from the finished scalar analysis (parent and the full
// pattern lp/li). AnalyzeLDL runs it once with the production bounds;
// tests rebuild with maxW=1/relax=false to pin the degenerate partition
// against the scalar path. The index structure the panel kernels run on
// is kept when index is set or the partition is profitable; otherwise
// only the counts that Supernodes, MeanPanelWidth and PanelNNZ report
// survive (setSupernodal rebuilds the rest on demand).
func (s *LDLSymbolic) buildSupernodes(maxW int, relax, index bool) {
	n := s.n
	if n == 0 {
		return
	}
	sp := &superState{}
	s.super = sp
	// colCount is the below-diagonal entry count of column j of L.
	colCount := func(j int) int { return s.lp[j+1] - s.lp[j] }

	// --- Fundamental supernodes, split at maxSuperWidth. Column j
	// extends the run when its struct is the run's struct shifted by one:
	// parent[j-1] == j and |struct(j-1)| == |struct(j)|+1.
	starts := make([]int32, 0, n/2+1)
	width := 0
	for j := 0; j < n; j++ {
		if j == 0 || width == maxW ||
			s.parent[j-1] != j || colCount(j-1) != colCount(j)+1 {
			starts = append(starts, int32(j))
			width = 1
		} else {
			width++
		}
	}
	starts = append(starts, int32(n))

	// --- Relaxed amalgamation: greedy forward merge of a run into the
	// next piece when the next piece starts exactly at the run's first
	// below-diagonal row (making it the run's supernodal parent, so the
	// merged row set is cols ∪ rows(next) by etree containment) and the
	// padding stays within the width-tiered bounds.
	//
	// Per piece: width w, struct entries Σ(lnz[j]+1), below-row count
	// b = lnz[c0] − (w−1), first below row li[lp[c0]+w−1].
	merged := make([]int32, 0, len(starts))
	i := 0
	for i < len(starts)-1 {
		c0 := int(starts[i])
		w := int(starts[i+1]) - c0
		entries := 0
		for j := c0; j < c0+w; j++ {
			entries += colCount(j) + 1
		}
		b := colCount(c0) - (w - 1)
		minB := -1
		if b > 0 {
			minB = int(s.li[s.lp[c0]+w-1])
		}
		merged = append(merged, int32(c0))
		i++
		for relax && i < len(starts)-1 && minB == int(starts[i]) {
			nc0 := int(starts[i])
			nw := int(starts[i+1]) - nc0
			if w+nw > maxW {
				break
			}
			nEntries := 0
			for j := nc0; j < nc0+nw; j++ {
				nEntries += colCount(j) + 1
			}
			nb := colCount(nc0) - (nw - 1)
			mw := w + nw
			nr := mw + nb
			stored := mw*nr - mw*(mw-1)/2
			pad := float64(stored-entries-nEntries) / float64(stored)
			ok := pad == 0 ||
				(mw <= relaxWidth1 && pad <= relaxPad1) ||
				(mw <= relaxWidth2 && pad <= relaxPad2) ||
				pad <= relaxPad3
			if !ok {
				break
			}
			w, entries, b = mw, entries+nEntries, nb
			minB = -1
			if nb > 0 {
				minB = int(s.li[s.lp[nc0]+nw-1])
			}
			i++
		}
	}
	merged = append(merged, int32(n))

	nsn := len(merged) - 1
	sp.nsn = nsn
	sp.snPtr = merged
	sp.snOf = make([]int32, n)
	for sn := 0; sn < nsn; sn++ {
		for j := merged[sn]; j < merged[sn+1]; j++ {
			sp.snOf[j] = int32(sn)
		}
	}

	// --- Padded row structure (closure pass, ascending): a supernode's
	// below rows are the union of its member columns' scalar patterns
	// and its supernodal children's below rows, restricted past its own
	// columns. The union closure is what makes every descendant update
	// land inside the ancestor's row set (scatter via a plain row map,
	// no search).
	sp.rowPtr = make([]int32, nsn+1)
	sp.rows = make([]int32, 0, s.lp[n]+n)
	childHead := make([]int32, nsn)
	childNext := make([]int32, nsn)
	for sn := range childHead {
		childHead[sn] = -1
	}
	mark := make([]int32, n)
	for r := range mark {
		mark[r] = -1
	}
	var below []int32
	for sn := 0; sn < nsn; sn++ {
		c0, c1 := int(merged[sn]), int(merged[sn+1])
		below = below[:0]
		for j := c0; j < c1; j++ {
			for p := s.lp[j]; p < s.lp[j+1]; p++ {
				r := s.li[p]
				if int(r) < c1 {
					continue
				}
				if mark[r] != int32(sn) {
					mark[r] = int32(sn)
					below = append(below, r)
				}
			}
		}
		for d := childHead[sn]; d >= 0; d = childNext[d] {
			wd := int(sp.snPtr[d+1] - sp.snPtr[d])
			for p := int(sp.rowPtr[d]) + wd; p < int(sp.rowPtr[d+1]); p++ {
				r := sp.rows[p]
				if int(r) < c1 {
					continue
				}
				if mark[r] != int32(sn) {
					mark[r] = int32(sn)
					below = append(below, r)
				}
			}
		}
		slices.Sort(below)
		for j := c0; j < c1; j++ {
			sp.rows = append(sp.rows, int32(j))
		}
		sp.rows = append(sp.rows, below...)
		sp.rowPtr[sn+1] = int32(len(sp.rows))
		if len(below) > 0 {
			p := sp.snOf[below[0]]
			childNext[sn] = childHead[p]
			childHead[p] = int32(sn)
		}
	}

	// --- Panel offsets and size/padding diagnostics.
	sp.panelPtr = make([]int, nsn+1)
	lowerStored := 0
	for sn := 0; sn < nsn; sn++ {
		w := int(merged[sn+1] - merged[sn])
		nr := int(sp.rowPtr[sn+1] - sp.rowPtr[sn])
		sp.panelPtr[sn+1] = sp.panelPtr[sn] + nr*w
		lowerStored += w*nr - w*(w-1)/2
		if nr > sp.maxNr {
			sp.maxNr = nr
		}
		if w > sp.maxW {
			sp.maxW = w
		}
	}
	sp.panelNNZ = sp.panelPtr[nsn]
	sp.padNNZ = lowerStored - (s.lp[n] + n)
	if !index && !s.SupernodalProfitable() {
		s.super = &superState{nsn: nsn, panelNNZ: sp.panelNNZ, padNNZ: sp.padNNZ}
		return
	}

	// --- Update lists: segment each supernode's below rows by owning
	// supernode (contiguous, rows ascending). Iterating descendants
	// ascending keeps each target's list in ascending-descendant order —
	// the fixed summation order of the blocked kernels.
	cnt := make([]int32, nsn+1)
	for d := 0; d < nsn; d++ {
		wd := int(merged[d+1] - merged[d])
		p := int(sp.rowPtr[d]) + wd
		end := int(sp.rowPtr[d+1])
		for p < end {
			t := sp.snOf[sp.rows[p]]
			cnt[t+1]++
			c1t := int(merged[t+1])
			for p < end && int(sp.rows[p]) < c1t {
				p++
			}
		}
	}
	sp.updPtr = make([]int32, nsn+1)
	for sn := 0; sn < nsn; sn++ {
		cnt[sn+1] += cnt[sn]
		sp.updPtr[sn+1] = cnt[sn+1]
	}
	nUpd := int(sp.updPtr[nsn])
	sp.updSn = make([]int32, nUpd)
	sp.updLo = make([]int32, nUpd)
	sp.updHi = make([]int32, nUpd)
	next := make([]int32, nsn)
	copy(next, sp.updPtr[:nsn])
	for d := 0; d < nsn; d++ {
		wd := int(merged[d+1] - merged[d])
		base := int(sp.rowPtr[d])
		p := base + wd
		end := int(sp.rowPtr[d+1])
		for p < end {
			t := sp.snOf[sp.rows[p]]
			lo := p
			c1t := int(merged[t+1])
			for p < end && int(sp.rows[p]) < c1t {
				p++
			}
			u := next[t]
			next[t]++
			sp.updSn[u] = int32(d)
			sp.updLo[u] = int32(lo - base)
			sp.updHi[u] = int32(p - base)
		}
	}

	// --- A-entry scatter lists. Upper-triangle entry (i=ci[p], k) is
	// lower entry (row k, col i): bucket by owning supernode, then
	// resolve panel offsets with a per-supernode row map.
	nnzU := s.cp[n]
	for sn := range cnt {
		cnt[sn] = 0
	}
	for k := 0; k < n; k++ {
		for p := s.cp[k]; p < s.cp[k+1]; p++ {
			cnt[sp.snOf[s.ci[p]]+1]++
		}
	}
	sp.aPtr = make([]int32, nsn+1)
	for sn := 0; sn < nsn; sn++ {
		cnt[sn+1] += cnt[sn]
		sp.aPtr[sn+1] = cnt[sn+1]
	}
	sp.aOff = make([]int32, nnzU)
	sp.aSrc = make([]int32, nnzU)
	tmpRow := make([]int32, nnzU)
	tmpCol := make([]int32, nnzU)
	copy(next, sp.aPtr[:nsn])
	for k := 0; k < n; k++ {
		for p := s.cp[k]; p < s.cp[k+1]; p++ {
			i := s.ci[p]
			e := next[sp.snOf[i]]
			next[sp.snOf[i]]++
			tmpRow[e] = int32(k)
			tmpCol[e] = int32(i)
			sp.aSrc[e] = int32(s.csrc[p])
		}
	}
	for sn := 0; sn < nsn; sn++ {
		c0 := int(merged[sn])
		r0 := int(sp.rowPtr[sn])
		nr := int(sp.rowPtr[sn+1]) - r0
		for a := 0; a < nr; a++ {
			mark[sp.rows[r0+a]] = int32(a)
		}
		for e := sp.aPtr[sn]; e < sp.aPtr[sn+1]; e++ {
			sp.aOff[e] = mark[tmpRow[e]] + (tmpCol[e]-int32(c0))*int32(nr)
		}
	}
}

// setSupernodal overrides the kernel pick of AnalyzeLDL: the dense-panel
// kernels (true) or the scalar column kernels (false) for this symbolic
// object's Factorize/Solve/SolveBatch. Only the cross-family reference
// tests call it; clones inherit the setting. Selecting the panel kernels
// on an analysis that kept only the partition counts builds the index
// structure first (for this object only; clones made before keep
// theirs). Switching modes re-lays-out the numeric factor on the next
// Factorize (a reused LDLNumeric is reallocated once).
func (s *LDLSymbolic) setSupernodal(on bool) {
	if on && s.super != nil && s.super.aPtr == nil {
		s.buildSupernodes(maxSuperWidth, true, true)
	}
	s.superOn = on && s.super != nil
}

// Supernodal reports whether the dense-panel kernels are selected.
func (s *LDLSymbolic) Supernodal() bool { return s.superOn }

// Supernodes returns the supernode count of the partition (0 before
// analysis).
func (s *LDLSymbolic) Supernodes() int {
	if s.super == nil {
		return 0
	}
	return s.super.nsn
}

// MeanPanelWidth returns the mean supernode width n/nsn — the factor by
// which the panel kernels amortize the scalar path's per-entry index
// traffic (1.0 = no amalgamation; 0 before analysis).
func (s *LDLSymbolic) MeanPanelWidth() float64 {
	if s.super == nil || s.super.nsn == 0 {
		return 0
	}
	return float64(s.n) / float64(s.super.nsn)
}

// PanelNNZ returns the stored float count of the supernodal L layout
// (scalar fill plus amalgamation padding plus the dead upper triangles).
func (s *LDLSymbolic) PanelNNZ() int {
	if s.super == nil {
		return 0
	}
	return s.super.panelNNZ
}

// SupernodalProfitable reports whether the partition is worth the panel
// kernels: the system is large enough to be sweep-bound and the mean
// panel width amortizes enough index traffic to beat the scalar path.
// AnalyzeLDL picks the kernel family with it.
func (s *LDLSymbolic) SupernodalProfitable() bool {
	return s.super != nil && s.n >= supernodalMinN &&
		s.MeanPanelWidth() >= supernodalMinMeanWidth
}

// ensureSuperSolveScratch sizes the supernodal solve scratch — one
// below-row buffer, the forward sweep's accumulator and the backward
// sweep's gather (amortized: grown once, then the per-tick path
// allocates nothing).
func (s *LDLSymbolic) ensureSuperSolveScratch() {
	sp := s.super
	if cap(s.stmp) < sp.maxNr {
		s.stmp = make([]float64, sp.maxNr)
	}
}

// ensureSuperFactorScratch sizes the supernodal factorization scratch: the global row map, the local-index list and the dense
// Schur-update buffer.
func (s *LDLSymbolic) ensureSuperFactorScratch() {
	sp := s.super
	if cap(s.ssmap) < s.n {
		s.ssmap = make([]int32, s.n)
	}
	if cap(s.sidx) < sp.maxNr {
		s.sidx = make([]int32, sp.maxNr)
	}
	if cap(s.supd) < sp.maxNr*sp.maxW {
		s.supd = make([]float64, sp.maxNr*sp.maxW)
	}
}

// factorizeSuper is the supernodal numeric factorization: left-looking
// over supernodes in elimination order.
func (s *LDLSymbolic) factorizeSuper(a *CSR, f *LDLNumeric) (*LDLNumeric, error) {
	s.ensureSuperFactorScratch()
	for sn := 0; sn < s.super.nsn; sn++ {
		if k, dk := f.factorSupernode(sn, a); k >= 0 {
			return nil, fmt.Errorf("%w: pivot %g at permuted index %d", ErrNotPositiveDefinite, dk, k)
		}
	}
	return f, nil
}

// factorSupernode computes supernode sn's panel: scatter the fresh A
// values, subtract each descendant's dense rank-k Schur update
// (ascending — the fixed summation order), then factor the panel with a
// small dense LDLᵀ. On a non-positive pivot it records the first failing
// column, poisons invd with 0 and finishes the panel deterministically;
// the caller turns failK ≥ 0 into ErrNotPositiveDefinite.
func (f *LDLNumeric) factorSupernode(sn int, a *CSR) (failK int, failDk float64) {
	s := f.s
	sp := s.super
	smap, idx, upd := s.ssmap, s.sidx, s.supd
	c0 := int(sp.snPtr[sn])
	w := int(sp.snPtr[sn+1]) - c0
	r0 := int(sp.rowPtr[sn])
	nr := int(sp.rowPtr[sn+1]) - r0
	pan := f.lx[sp.panelPtr[sn]:sp.panelPtr[sn+1]]
	clear(pan)
	for e := sp.aPtr[sn]; e < sp.aPtr[sn+1]; e++ {
		pan[sp.aOff[e]] = a.Val[sp.aSrc[e]]
	}
	rws := sp.rows[r0 : r0+nr]
	for i, r := range rws {
		smap[r] = int32(i)
	}

	// Descendant Schur updates: C = (P_d rows lo..nr_d) · D · (P_d rows
	// lo..hi)ᵀ accumulated densely, then scattered into the panel through
	// the row map. The closure structure guarantees every target row is
	// present.
	for u := sp.updPtr[sn]; u < sp.updPtr[sn+1]; u++ {
		d := int(sp.updSn[u])
		lo := int(sp.updLo[u])
		hi := int(sp.updHi[u])
		c0d := int(sp.snPtr[d])
		wd := int(sp.snPtr[d+1]) - c0d
		nrd := int(sp.rowPtr[d+1] - sp.rowPtr[d])
		pand := f.lx[sp.panelPtr[d]:sp.panelPtr[d+1]]
		m := nrd - lo // update rows (all land in this panel)
		nb := hi - lo // update columns (descendant rows inside our columns)
		rd := sp.rows[int(sp.rowPtr[d])+lo : sp.rowPtr[d+1]]
		lidx := idx[:m]
		for i, r := range rd {
			lidx[i] = smap[r]
		}
		C := upd[: m*nb : m*nb]
		for b := 0; b < nb; b++ {
			colC := C[b*m : b*m+m]
			for i := b; i < m; i++ {
				colC[i] = 0
			}
		}
		for k := 0; k < wd; k++ {
			dk := f.d[c0d+k]
			colD := pand[k*nrd+lo : k*nrd+nrd]
			for b := 0; b < nb; b++ {
				t := colD[b] * dk
				if t == 0 {
					continue // padded zeros; value-determined, so still deterministic
				}
				colC := C[b*m : b*m+m]
				for i := b; i < m; i++ {
					colC[i] += colD[i] * t
				}
			}
		}
		for b := 0; b < nb; b++ {
			j := int(lidx[b])
			dst := pan[j*nr : j*nr+nr]
			colC := C[b*m : b*m+m]
			for i := b; i < m; i++ {
				dst[lidx[i]] -= colC[i]
			}
		}
	}

	// Dense LDLᵀ of the panel: factor the w×w diagonal block and scale
	// the below-block columns, right-looking within the panel.
	failK = -1
	for k := 0; k < w; k++ {
		col := pan[k*nr : k*nr+nr]
		dk := col[k]
		f.d[c0+k] = dk
		if dk <= 0 {
			if failK < 0 {
				failK, failDk = c0+k, dk
			}
			f.invd[c0+k] = 0 // poison, never a valid 1/dk for dk > 0
		} else {
			f.invd[c0+k] = 1 / dk
		}
		iv := f.invd[c0+k]
		for i := k + 1; i < nr; i++ {
			col[i] *= iv
		}
		for j := k + 1; j < w; j++ {
			t := col[j] * dk
			if t == 0 {
				continue
			}
			cj := pan[j*nr : j*nr+nr]
			for i := j; i < nr; i++ {
				cj[i] -= col[i] * t
			}
		}
	}
	return failK, failDk
}

// forwardSuper applies supernode sn's slice of the forward sweep to the
// permuted work vector w, right-looking: every descendant has already
// pushed its update, so the diagonal block's values are final after the
// dense unit-lower solve on it. The below-diagonal block is then read
// column by column, in storage order, into one accumulator per below
// row, and each row is subtracted from w once. Every w[r] so receives
// one subtraction per descendant, in ascending descendant order — the
// fixed order the batch path shares.
func (f *LDLNumeric) forwardSuper(sn int) {
	s := f.s
	sp := s.super
	w := s.w
	c0 := int(sp.snPtr[sn])
	wid := int(sp.snPtr[sn+1]) - c0
	r0 := int(sp.rowPtr[sn])
	nr := int(sp.rowPtr[sn+1]) - r0
	pan := f.lx[sp.panelPtr[sn]:]
	for k := 0; k < wid; k++ {
		t := w[c0+k]
		col := pan[k*nr:]
		for i := k + 1; i < wid; i++ {
			w[c0+i] -= col[i] * t
		}
	}
	acc := s.stmp[:nr-wid]
	clear(acc)
	for k := 0; k < wid; k++ {
		t := w[c0+k]
		col := pan[k*nr+wid : k*nr+nr]
		for i, v := range col {
			acc[i] += v * t
		}
	}
	for i, r := range sp.rows[r0+wid : r0+nr] {
		w[r] -= acc[i]
	}
}

// backwardSuper applies supernode sn's slice of the backward (Lᵀ) sweep:
// gather the already-final ancestor values of the below rows into tmp,
// subtract each column's dot product, then the transposed dense solve on
// the diagonal block.
func (f *LDLNumeric) backwardSuper(sn int) {
	s := f.s
	sp := s.super
	w, tmp := s.w, s.stmp
	c0 := int(sp.snPtr[sn])
	wid := int(sp.snPtr[sn+1]) - c0
	r0 := int(sp.rowPtr[sn])
	nr := int(sp.rowPtr[sn+1]) - r0
	pan := f.lx[sp.panelPtr[sn]:]
	below := nr - wid
	rws := sp.rows[r0+wid : r0+nr]
	t := tmp[:below]
	for a, r := range rws {
		t[a] = w[r]
	}
	for k := 0; k < wid; k++ {
		col := pan[k*nr+wid : k*nr+nr]
		sum := 0.0
		for a, v := range col {
			sum += v * t[a]
		}
		w[c0+k] -= sum
	}
	for k := wid - 1; k >= 0; k-- {
		col := pan[k*nr:]
		sum := 0.0
		for i := k + 1; i < wid; i++ {
			sum += col[i] * w[c0+i]
		}
		w[c0+k] -= sum
	}
}

// solveSuper is the supernodal Solve body over the permuted work vector
// (permutation handled by the caller).
func (f *LDLNumeric) solveSuper() {
	s := f.s
	s.ensureSuperSolveScratch()
	sp := s.super
	w := s.w
	for sn := 0; sn < sp.nsn; sn++ {
		f.forwardSuper(sn)
	}
	for j := 0; j < s.n; j++ {
		w[j] *= f.invd[j]
	}
	for sn := sp.nsn - 1; sn >= 0; sn-- {
		f.backwardSuper(sn)
	}
}

// solveBatchSuper runs the supernodal triangular sweeps over the packed
// node-major k-wide panel wb (permutation and pack/unpack handled by
// SolveBatch). Per-RHS the operation sequence mirrors solveSuper exactly
// — same right-looking per-panel accumulate-then-subtract forward pass,
// same dense triangular loops — so each lane is bit-identical to a
// sequential supernodal Solve.
func (f *LDLNumeric) solveBatchSuper(wb []float64, kb int) {
	s := f.s
	sp := s.super
	if cap(s.sbacc) < kb {
		s.sbacc = make([]float64, kb)
	}
	if cap(s.sbtmp) < sp.maxNr*kb {
		s.sbtmp = make([]float64, sp.maxNr*kb)
	}
	acc := s.sbacc[:kb]
	tmp := s.sbtmp
	for sn := 0; sn < sp.nsn; sn++ {
		c0 := int(sp.snPtr[sn])
		wid := int(sp.snPtr[sn+1]) - c0
		r0 := int(sp.rowPtr[sn])
		nr := int(sp.rowPtr[sn+1]) - r0
		pan := f.lx[sp.panelPtr[sn]:]
		for k := 0; k < wid; k++ {
			trow := wb[(c0+k)*kb : (c0+k)*kb+kb]
			col := pan[k*nr:]
			for i := k + 1; i < wid; i++ {
				v := col[i]
				drow := wb[(c0+i)*kb : (c0+i)*kb+kb]
				for r, t := range trow {
					drow[r] -= v * t
				}
			}
		}
		below := nr - wid
		a := tmp[: below*kb : below*kb]
		clear(a)
		for k := 0; k < wid; k++ {
			trow := wb[(c0+k)*kb : (c0+k)*kb+kb]
			col := pan[k*nr+wid : k*nr+nr]
			for i, v := range col {
				arow := a[i*kb : i*kb+kb]
				for r, t := range trow {
					arow[r] += v * t
				}
			}
		}
		for i, row := range sp.rows[r0+wid : r0+nr] {
			dst := wb[int(row)*kb:]
			dst = dst[:kb:kb]
			arow := a[i*kb : i*kb+kb]
			for r := range dst {
				dst[r] -= arow[r]
			}
		}
	}
	n := s.n
	for j := 0; j < n; j++ {
		iv := f.invd[j]
		row := wb[j*kb : j*kb+kb]
		for r := range row {
			row[r] *= iv
		}
	}
	for sn := sp.nsn - 1; sn >= 0; sn-- {
		c0 := int(sp.snPtr[sn])
		wid := int(sp.snPtr[sn+1]) - c0
		r0 := int(sp.rowPtr[sn])
		nr := int(sp.rowPtr[sn+1]) - r0
		pan := f.lx[sp.panelPtr[sn]:]
		below := nr - wid
		rws := sp.rows[r0+wid : r0+nr]
		t := tmp[: below*kb : below*kb]
		for a, r := range rws {
			copy(t[a*kb:a*kb+kb], wb[int(r)*kb:int(r)*kb+kb])
		}
		for k := 0; k < wid; k++ {
			col := pan[k*nr+wid : k*nr+nr]
			clear(acc)
			for a, v := range col {
				srow := t[a*kb : a*kb+kb]
				for r, tv := range srow {
					acc[r] += v * tv
				}
			}
			drow := wb[(c0+k)*kb : (c0+k)*kb+kb]
			for r := range drow {
				drow[r] -= acc[r]
			}
		}
		for k := wid - 1; k >= 0; k-- {
			col := pan[k*nr:]
			clear(acc)
			for i := k + 1; i < wid; i++ {
				v := col[i]
				srow := wb[(c0+i)*kb : (c0+i)*kb+kb]
				for r, tv := range srow {
					acc[r] += v * tv
				}
			}
			drow := wb[(c0+k)*kb : (c0+k)*kb+kb]
			for r := range drow {
				drow[r] -= acc[r]
			}
		}
	}
}
