package mat

import "slices"

// Two-stream scalar solve.
//
// A lone scalar Solve is latency-bound: the backward gather of each column
// is one chain of dependent subtractions, and the forward scatter of a
// column waits for the scatters that finalize its own value. Two columns
// in disjoint subtrees of the elimination tree share no row, so their
// chains are independent. AnalyzeLDL therefore splits the etree of a
// scalar-kernel factor into a top, closed under ancestors, and two
// streams, each a union of complete subtrees, and Solve runs the two
// streams side by side, one column of each per step (the subtree mapping
// of Anderson & Saad and of Pothen & Sun, on one core). Whole columns
// alternate and the out-of-order core overlaps them; fusing each pair's
// two inner loops into one measured no faster on the 2-layer 23×20
// factor.
//
//
//  1. forward scatter of both streams, interleaved, into the rows inside
//     each column's own subtree;
//  2. one ascending pass over all columns: each stream column scatters
//     its rows above its subtree, each top column scatters all its rows;
//  3. the diagonal scaling;
//  4. backward gather over the top, descending, then over both streams,
//     interleaved, descending.
//
// Bit identity with the one-column loop (solveScalarOracle in the tests):
// a column's rows are ancestors of it, and its subtree's ancestors are all
// top columns with larger indices than any column in the subtree, so the
// rows inside its subtree are a prefix of its ascending row list. A stream
// row receives subtractions only from its own descendants, which share its
// stream, in step 1 in ascending column order; a top row receives them
// all in step 2, again in ascending column order. Every column's value is
// final before it scatters, and the exact-zero skip tests that final value
// in both steps. In step 4 each gather reads only ancestors, finished
// earlier in the same step, and keeps its ascending row order. So every
// entry sees the same operations in the same order as the serial loop.
// A plan without two streams (a chain-shaped etree, as RCM gives below
// ndThreshold) puts every column in the top and runs the same code as the
// plain serial loop.

// streamPlan is the scalar Solve's partition of the elimination tree.
// Immutable once built, shared by Clone.
type streamPlan struct {
	// cols lists every column once: stream 0 ascending in cols[:s1],
	// stream 1 ascending in cols[s1:top], the top ascending in cols[top:].
	cols    []int32
	s1, top int
	// in[j] is the number of column j's rows inside its stream subtree,
	// a prefix of its ascending row list (0 for a top column).
	in []int32
}

// buildStreams derives the stream plan from the finished etree and the
// pattern of L. A column's work is its entry count plus one; a subtree's
// work sums its columns. Starting from the etree roots, the heaviest
// subtree is split (its root moved to the top, its children made
// subtrees) while it holds more than half the work outside the top; the
// split count that minimizes top + max(heaviest, half the rest) is kept.
// The subtrees then go to the lighter stream in descending work order;
// if one stream stays empty (a chain-shaped etree), every column goes to
// the top.
// Subtrees are enumerated from parent, never assumed to be column ranges:
// a node that couples to many others (the air sink) can leave a subtree's
// columns interleaved with other subtrees'.
func (s *LDLSymbolic) buildStreams() *streamPlan {
	n := s.n
	parent := s.parent
	work := make([]int, n)
	kidPtr := make([]int32, n+1)
	total := 0
	var subs []int32 // current subtree roots
	for j := 0; j < n; j++ {
		work[j] += s.lp[j+1] - s.lp[j] + 1
		if p := parent[j]; p >= 0 {
			work[p] += work[j] // p > j: its own total is still to come
			kidPtr[p+1]++
		} else {
			total += work[j]
			subs = append(subs, int32(j))
		}
	}
	for j := 0; j < n; j++ {
		kidPtr[j+1] += kidPtr[j]
	}
	kids := make([]int32, n)
	next := slices.Clone(kidPtr[:n])
	for j := 0; j < n; j++ {
		if p := parent[j]; p >= 0 {
			kids[next[p]] = int32(j)
			next[p]++
		}
	}
	heaviest := func() int {
		h := 0
		for i, r := range subs {
			if hr := subs[h]; work[r] > work[hr] || (work[r] == work[hr] && r < hr) {
				h = i
			}
		}
		return h
	}

	var path []int32 // split roots, in split order
	topW, best, bestLen := 0, total+1, 0
	for len(subs) > 0 {
		i := heaviest()
		h := subs[i]
		if c := topW + max(work[h], (total-topW+1)/2); c < best {
			best, bestLen = c, len(path)
		}
		if 2*work[h] <= total-topW || kidPtr[h] == kidPtr[h+1] {
			break
		}
		subs[i] = subs[len(subs)-1]
		subs = append(subs[:len(subs)-1], kids[kidPtr[h]:kidPtr[h+1]]...)
		topW += s.lp[h+1] - s.lp[h] + 1
		path = append(path, h)
	}

	// sid[j]: 0 or 1 for the streams, 2 for the top. Parents come after
	// their children, so a descending pass sees the parent first.
	const inTop = 2
	sid := make([]uint8, n)
	for _, j := range path[:bestLen] {
		sid[j] = inTop
	}
	var roots []int32
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; sid[j] != inTop && (p < 0 || sid[p] == inTop) {
			roots = append(roots, int32(j))
		}
	}
	slices.SortFunc(roots, func(a, b int32) int {
		if work[a] != work[b] {
			return work[b] - work[a]
		}
		return int(a - b)
	})
	var load [2]int
	for _, r := range roots {
		t := 0
		if load[1] < load[0] {
			t = 1
		}
		load[t] += work[r]
		sid[r] = uint8(t)
	}
	streamed := load[1] > 0 // else a single subtree: all top
	for j := n - 1; j >= 0; j-- {
		switch p := parent[j]; {
		case !streamed:
			sid[j] = inTop
		case sid[j] == inTop || p < 0 || sid[p] == inTop:
			// a top column or a subtree root: already set
		default:
			sid[j] = sid[p]
		}
	}

	pl := &streamPlan{cols: make([]int32, 0, n), in: make([]int32, n)}
	for t := uint8(0); t <= inTop; t++ {
		switch t {
		case 1:
			pl.s1 = len(pl.cols)
		case inTop:
			pl.top = len(pl.cols)
		}
		for j := 0; j < n; j++ {
			if sid[j] == t {
				pl.cols = append(pl.cols, int32(j))
			}
		}
	}
	for _, j := range pl.cols[:pl.top] {
		p := s.lp[j]
		for p < s.lp[j+1] && sid[s.li[p]] != inTop {
			p++
		}
		pl.in[j] = int32(p - s.lp[j])
	}
	return pl
}

// solveStreams runs the scalar sweeps on the permuted work vector s.w
// along the stream plan (see the file comment).
func (f *LDLNumeric) solveStreams() {
	s := f.s
	pl := s.plan
	w, lp, in := s.w, s.lp, pl.in
	c0, c1, top := pl.cols[:pl.s1], pl.cols[pl.s1:pl.top], pl.cols[pl.top:]
	steps := max(len(c0), len(c1))

	// 1. Forward scatter into the rows inside each stream's subtrees, one
	// column of each stream per step: the two share no row, so their
	// dependency chains overlap.
	for k := range steps {
		if k < len(c0) {
			j := c0[k]
			f.scatter(j, lp[j], lp[j]+int(in[j]))
		}
		if k < len(c1) {
			j := c1[k]
			f.scatter(j, lp[j], lp[j]+int(in[j]))
		}
	}
	// 2. Every column's rows in the top, in ascending column order.
	for j, nin := range in {
		f.scatter(int32(j), lp[j]+int(nin), lp[j+1])
	}
	// 3. Diagonal scaling.
	invd := f.invd[:len(w)]
	for j := range w {
		w[j] *= invd[j]
	}
	// 4. Backward gather: the top, then both streams, descending, one
	// column of each per step (the streams' ends aligned).
	for k := len(top) - 1; k >= 0; k-- {
		j := top[k]
		f.gather(j, lp[j], lp[j+1])
	}
	for k := steps - 1; k >= 0; k-- {
		if k0 := k - steps + len(c0); k0 >= 0 {
			j := c0[k0]
			f.gather(j, lp[j], lp[j+1])
		}
		if k1 := k - steps + len(c1); k1 >= 0 {
			j := c1[k1]
			f.gather(j, lp[j], lp[j+1])
		}
	}
}

// scatter subtracts column j's entries lo..hi of L, times w[j], from
// their rows, skipping an exact-zero w[j] as the serial loop does.
func (f *LDLNumeric) scatter(j int32, lo, hi int) {
	w := f.s.w
	wj := w[j]
	if lo == hi || wj == 0 {
		return
	}
	rows, xs := f.s.li[lo:hi], f.lx[lo:hi]
	xs = xs[:len(rows)]
	for p, i := range rows {
		w[i] -= xs[p] * wj
	}
}

// gather finishes w[j] of the backward sweep: w[j] minus column j's
// entries lo..hi of L against the final values of their rows, in
// ascending row order.
func (f *LDLNumeric) gather(j int32, lo, hi int) {
	w := f.s.w
	rows, xs := f.s.li[lo:hi], f.lx[lo:hi]
	xs = xs[:len(rows)]
	wj := w[j]
	for p, i := range rows {
		wj -= xs[p] * w[i]
	}
	w[j] = wj
}
