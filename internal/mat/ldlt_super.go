package mat

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
// Subtree parallelism: the supernodal elimination tree splits into
// independent subtrees (the fixed subtree-to-core mapping of Pothen &
// Sun). buildSchedule moves the heaviest subtree's root into a serial
// "top", starting from the roots, until no remaining subtree holds more
// than half the panel work; each remaining subtree is a task. Factorize,
// and the forward and backward sweeps of Solve, each run the tasks on
// min(GOMAXPROCS, #tasks) goroutines in one fork-join (the caller is one
// of them; one worker runs the same code inline) and the top serially:
//
//   - Factorize: a task's supernodes only read panels inside the task,
//     so the tasks run first, each with its own scratch, then the top in
//     ascending order.
//   - Backward sweep: the top first, in descending order; then the tasks,
//     which only gather final ancestor values.
//   - Forward sweep: inside a task each supernode subtracts its below
//     rows that lie inside the task directly. The rest are ancestors of
//     the task root — always a suffix of its ascending row list — and
//     their accumulators go to a per-supernode log at a fixed offset.
//     One serial pass then visits, in ascending supernode order, every
//     task supernode with a log (replaying it) and every top supernode
//     (running its forward step).
//
// Determinism: each supernode's kernel runs a fixed loop nest, and every
// target receives its updates in ascending descendant order, whatever
// the worker count: inside a task that is the task's own ascending
// order, and every top row gets its subtractions from the merged pass,
// which walks all contributing supernodes in ascending order. (The tasks
// are not contiguous supernode ranges, so replaying a whole task's log as
// one block would reorder those subtractions.) A factorization that meets
// a non-positive pivot reports the one with the lowest supernode, as a
// serial ascending sweep would. So results are bit-identical at any
// GOMAXPROCS and run-to-run, and SolveBatch (serial) reproduces Solve
// bit-for-bit.

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

	// Subtree schedule (buildSchedule). Task t owns the supernodes
	// taskSn[taskPtr[t]:taskPtr[t+1]], ascending: one whole subtree of the
	// supernodal elimination tree. Tasks are ordered by descending panel
	// work, so workers claiming them in order balance greedily. top holds
	// every other supernode (ancestors of the task roots), ascending.
	// Supernode sn's forward log is flog[logPtr[sn]:logPtr[sn+1]], the
	// accumulators of its last below rows, those above its task root
	// (empty for the top). merge lists, ascending, the top supernodes and
	// the task supernodes with a non-empty log: the forward sweep's
	// serial pass.
	taskPtr []int32
	taskSn  []int32
	top     []int32
	logPtr  []int32
	merge   []int32

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
	sp.buildSchedule()
}

// buildSchedule splits the supernodal elimination tree into subtree tasks
// and the serial top (see the file comment). A supernode's parent is the
// owner of its first below row, and its work is its subtree's panel
// floats. A subtree is split (its root moved to the top, its children
// made subtrees) while it holds more than half the total work and has
// children; since two disjoint subtrees cannot both exceed half, the top
// is the path of such roots from an etree root down.
func (sp *superState) buildSchedule() {
	nsn := sp.nsn
	parent := make([]int32, nsn)
	work := make([]int, nsn)
	hasChild := make([]bool, nsn)
	total := 0
	for sn := 0; sn < nsn; sn++ {
		parent[sn] = -1
		if p := sp.rowPtr[sn] + sp.snPtr[sn+1] - sp.snPtr[sn]; p < sp.rowPtr[sn+1] {
			parent[sn] = sp.snOf[sp.rows[p]]
		}
		work[sn] += sp.panelPtr[sn+1] - sp.panelPtr[sn]
		if p := parent[sn]; p >= 0 {
			work[p] += work[sn] // p > sn: its own total is still to come
			hasChild[p] = true
		} else {
			total += work[sn]
		}
	}
	// owner[sn] is the root of sn's task, or -1 in the top; parents come
	// after their children, so a descending pass sees the parent first.
	owner := make([]int32, nsn)
	var roots []int32
	for sn := nsn - 1; sn >= 0; sn-- {
		switch p := parent[sn]; {
		case 2*work[sn] > total && hasChild[sn]:
			owner[sn] = -1
		case p < 0 || owner[p] < 0:
			owner[sn] = int32(sn)
			roots = append(roots, int32(sn))
		default:
			owner[sn] = owner[p]
		}
	}
	slices.SortFunc(roots, func(a, b int32) int {
		if work[a] != work[b] {
			return work[b] - work[a]
		}
		return int(a - b)
	})
	taskOf := make([]int32, nsn) // task index of a task root
	for t, r := range roots {
		taskOf[r] = int32(t)
	}

	sp.taskPtr = make([]int32, len(roots)+1)
	for sn := 0; sn < nsn; sn++ {
		if r := owner[sn]; r >= 0 {
			sp.taskPtr[taskOf[r]+1]++
		}
	}
	for t := range roots {
		sp.taskPtr[t+1] += sp.taskPtr[t]
	}
	next := slices.Clone(sp.taskPtr[:len(roots)])
	sp.taskSn = make([]int32, sp.taskPtr[len(roots)])
	sp.logPtr = make([]int32, nsn+1)
	for sn := 0; sn < nsn; sn++ {
		r := owner[sn]
		if r < 0 {
			sp.top = append(sp.top, int32(sn))
			sp.merge = append(sp.merge, int32(sn))
			sp.logPtr[sn+1] = sp.logPtr[sn]
			continue
		}
		t := taskOf[r]
		sp.taskSn[next[t]] = int32(sn)
		next[t]++
		below := sp.rows[sp.rowPtr[sn]+sp.snPtr[sn+1]-sp.snPtr[sn] : sp.rowPtr[sn+1]]
		above, _ := slices.BinarySearch(below, sp.snPtr[r+1])
		nlog := int32(len(below) - above)
		sp.logPtr[sn+1] = sp.logPtr[sn] + nlog
		if nlog > 0 {
			sp.merge = append(sp.merge, int32(sn))
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

// superScratch is one subtree worker's scratch for the panel kernels.
type superScratch struct {
	acc  []float64 // solve: below-row accumulator / gather buffer
	smap []int32   // factorize: global row → panel-local row
	idx  []int32   // factorize: per-update local row indices
	upd  []float64 // factorize: dense Schur-update buffer
	fail superFail // factorize: the worker's lowest failing supernode
}

// superFail records a non-positive pivot: column k of supernode sn
// (sn < 0: none).
type superFail struct {
	sn, k int
	dk    float64
}

// superFork is the fork-join state of one symbolic object's subtree tasks:
// the kernel and factor of the sweep in flight, the matrix of a
// factorization, the next unclaimed task, the first panic a worker
// recovered, and spawn[w], worker w's goroutine body (the caller runs
// worker 0 itself), built once so that a fork allocates nothing.
type superFork struct {
	kernel func(f *LDLNumeric, task int, ws *superScratch)
	f      *LDLNumeric
	a      *CSR
	next   atomic.Int32
	wg     sync.WaitGroup
	mu     sync.Mutex
	failed any
	spawn  []func()
}

// ensureSuperScratch sizes the panel kernels' scratch for the workers of
// the next fork — min(GOMAXPROCS, #tasks) — and returns their count. A
// factorization needs each worker's row map, index list and Schur-update
// buffer, a solve its accumulator and the forward log. Amortized: grown
// once per high-water worker count, then the per-tick path allocates
// nothing.
func (s *LDLSymbolic) ensureSuperScratch(factor bool) int {
	sp := s.super
	nw := min(runtime.GOMAXPROCS(0), len(sp.taskPtr)-1)
	for len(s.sw) < nw {
		s.sw = append(s.sw, superScratch{})
	}
	for len(s.fork.spawn) < nw {
		w := len(s.fork.spawn)
		s.fork.spawn = append(s.fork.spawn, func() {
			defer s.fork.wg.Done()
			s.drainTasks(w)
		})
	}
	for i := range s.sw[:nw] {
		ws := &s.sw[i]
		if factor {
			if len(ws.smap) < s.n {
				ws.smap = make([]int32, s.n)
			}
			if len(ws.idx) < sp.maxNr {
				ws.idx = make([]int32, sp.maxNr)
			}
			if len(ws.upd) < sp.maxNr*sp.maxW {
				ws.upd = make([]float64, sp.maxNr*sp.maxW)
			}
		} else if len(ws.acc) < sp.maxNr {
			ws.acc = make([]float64, sp.maxNr)
		}
	}
	if !factor && len(s.flog) < int(sp.logPtr[sp.nsn]) {
		s.flog = make([]float64, sp.logPtr[sp.nsn])
	}
	return nw
}

// forkTasks runs kernel over every subtree task on nw workers (sized by
// ensureSuperScratch): the caller is worker 0 and nw−1 goroutines join
// it; each worker claims the next unclaimed task until none is left.
// With one worker no goroutine starts. A panicking kernel stops its
// worker only; forkTasks waits for the others and then re-panics with
// the first value on the caller's goroutine, so the caller's recover
// sees it as it would a serial sweep's.
func (s *LDLSymbolic) forkTasks(nw int, kernel func(*LDLNumeric, int, *superScratch), f *LDLNumeric, a *CSR) {
	fk := &s.fork
	fk.kernel, fk.f, fk.a = kernel, f, a
	fk.next.Store(0)
	fk.wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go fk.spawn[w]()
	}
	s.drainTasks(0)
	fk.wg.Wait()
	fk.f, fk.a = nil, nil
	if p := fk.failed; p != nil {
		fk.failed = nil
		panic(p)
	}
}

// drainTasks is worker w's loop — claim tasks until none is left — with
// a panic recorded in the fork state instead of unwinding the worker's
// goroutine.
func (s *LDLSymbolic) drainTasks(w int) {
	defer s.fork.recoverWorker()
	fk := &s.fork
	ntask := int32(len(s.super.taskPtr) - 1)
	for t := fk.next.Add(1) - 1; t < ntask; t = fk.next.Add(1) - 1 {
		fk.kernel(fk.f, int(t), &s.sw[w])
	}
}

// recoverWorker, deferred by drainTasks, keeps the first recovered panic.
func (fk *superFork) recoverWorker() {
	if p := recover(); p != nil {
		fk.mu.Lock()
		if fk.failed == nil {
			fk.failed = p
		}
		fk.mu.Unlock()
	}
}

// taskSupernodes returns task t's supernodes, ascending.
func (sp *superState) taskSupernodes(t int) []int32 {
	return sp.taskSn[sp.taskPtr[t]:sp.taskPtr[t+1]]
}

// factorizeSuper is the supernodal numeric factorization: left-looking
// over supernodes, the subtree tasks in parallel and then the top in
// ascending order. A top supernode above the lowest failing supernode is
// never factorized, so the failure reported is the one a serial
// ascending sweep meets first.
func (s *LDLSymbolic) factorizeSuper(a *CSR, f *LDLNumeric) (*LDLNumeric, error) {
	nw := s.ensureSuperScratch(true)
	for i := range s.sw[:nw] {
		s.sw[i].fail = superFail{sn: -1}
	}
	s.forkTasks(nw, (*LDLNumeric).factorTask, f, a)
	fail := superFail{sn: -1}
	for _, ws := range s.sw[:nw] {
		if ws.fail.sn >= 0 && (fail.sn < 0 || ws.fail.sn < fail.sn) {
			fail = ws.fail
		}
	}
	for _, sn := range s.super.top {
		if fail.sn >= 0 && int(sn) > fail.sn {
			break
		}
		if k, dk := f.factorSupernode(int(sn), a, &s.sw[0]); k >= 0 {
			fail = superFail{int(sn), k, dk}
			break
		}
	}
	if fail.sn >= 0 {
		return nil, fmt.Errorf("%w: pivot %g at permuted index %d", ErrNotPositiveDefinite, fail.dk, fail.k)
	}
	return f, nil
}

// factorTask factorizes task t's supernodes in ascending order, stopping
// at the first failing one (recorded in ws.fail when it is the worker's
// lowest).
func (f *LDLNumeric) factorTask(t int, ws *superScratch) {
	for _, sn := range f.s.super.taskSupernodes(t) {
		if k, dk := f.factorSupernode(int(sn), f.s.fork.a, ws); k >= 0 {
			if ws.fail.sn < 0 || int(sn) < ws.fail.sn {
				ws.fail = superFail{int(sn), k, dk}
			}
			return
		}
	}
}

// factorSupernode computes supernode sn's panel: scatter the fresh A
// values, subtract each descendant's dense rank-k Schur update
// (ascending — the fixed summation order), then factor the panel with a
// small dense LDLᵀ. On a non-positive pivot it records the first failing
// column, poisons invd with 0 and finishes the panel deterministically;
// the caller turns failK ≥ 0 into ErrNotPositiveDefinite.
func (f *LDLNumeric) factorSupernode(sn int, a *CSR, ws *superScratch) (failK int, failDk float64) {
	sp := f.s.super
	smap, idx, upd := ws.smap, ws.idx, ws.upd
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
// row (acc). Each row inside sn's task is subtracted from w at once; the
// accumulators of the rows above the task root are written to sn's
// forward log for the merged pass (a top supernode has no log). Every
// w[r] so receives one subtraction per descendant, in ascending
// descendant order — the fixed order the batch path shares.
func (f *LDLNumeric) forwardSuper(sn int, acc []float64) {
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
	acc = acc[:nr-wid]
	clear(acc)
	for k := 0; k < wid; k++ {
		t := w[c0+k]
		col := pan[k*nr+wid : k*nr+nr]
		for i, v := range col {
			acc[i] += v * t
		}
	}
	lg := s.flog[sp.logPtr[sn]:sp.logPtr[sn+1]]
	in := len(acc) - len(lg)
	for i, r := range sp.rows[r0+wid : r0+wid+in] {
		w[r] -= acc[i]
	}
	copy(lg, acc[in:])
}

// backwardSuper applies supernode sn's slice of the backward (Lᵀ) sweep:
// gather the already-final ancestor values of the below rows into tmp,
// subtract each column's dot product, then the transposed dense solve on
// the diagonal block.
func (f *LDLNumeric) backwardSuper(sn int, tmp []float64) {
	s := f.s
	sp := s.super
	w := s.w
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

// forwardTask runs the forward sweep over task t's supernodes, ascending.
func (f *LDLNumeric) forwardTask(t int, ws *superScratch) {
	for _, sn := range f.s.super.taskSupernodes(t) {
		f.forwardSuper(int(sn), ws.acc)
	}
}

// backwardTask runs the backward sweep over task t's supernodes,
// descending.
func (f *LDLNumeric) backwardTask(t int, ws *superScratch) {
	sns := f.s.super.taskSupernodes(t)
	for i := len(sns) - 1; i >= 0; i-- {
		f.backwardSuper(int(sns[i]), ws.acc)
	}
}

// solveSuper is the supernodal Solve body over the permuted work vector
// (permutation handled by the caller): the forward tasks, the merged
// pass, the diagonal scaling, the backward top, the backward tasks.
func (f *LDLNumeric) solveSuper() {
	s := f.s
	sp := s.super
	w := s.w
	nw := s.ensureSuperScratch(false)
	acc := s.sw[0].acc
	s.forkTasks(nw, (*LDLNumeric).forwardTask, f, nil)
	for _, sn := range sp.merge {
		lg := s.flog[sp.logPtr[sn]:sp.logPtr[sn+1]]
		if len(lg) == 0 {
			f.forwardSuper(int(sn), acc)
			continue
		}
		end := int(sp.rowPtr[sn+1])
		for i, r := range sp.rows[end-len(lg) : end] {
			w[r] -= lg[i]
		}
	}
	for j := 0; j < s.n; j++ {
		w[j] *= f.invd[j]
	}
	for i := len(sp.top) - 1; i >= 0; i-- {
		f.backwardSuper(int(sp.top[i]), acc)
	}
	s.forkTasks(nw, (*LDLNumeric).backwardTask, f, nil)
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
