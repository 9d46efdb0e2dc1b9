package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/testutil"
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
// SolveBatch all allocate nothing in steady state — with the subtree
// tasks inline and forked. The auto gate picks the panel kernels for the
// 70×60 grid; the forced 30×25 one keeps the warmed refactorizations
// cheap. Under the race detector only the inline level is measured: the
// thousand warm calls a forked level needs take minutes there.
func TestSupernodalHotPathAllocFree(t *testing.T) {
	big := gridLaplacian(70, 60, 2)
	sb, err := AnalyzeLDL(big, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !sb.Supernodal() {
		t.Fatal("expected the auto gate to pick supernodal at this size")
	}
	a := gridLaplacian(30, 25, 2)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	s.setSupernodal(true)
	if nt := len(s.super.taskPtr) - 1; nt < 2 {
		t.Fatalf("schedule has %d subtree tasks, want ≥ 2 (nothing would fork)", nt)
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
	const k = 4
	xs := make([][]float64, k)
	bs := make([][]float64, k)
	for r := range xs {
		xs[r] = make([]float64, a.N)
		bs[r] = bvec
	}
	levels := testutil.ProcsLevels
	if testutil.RaceEnabled {
		levels = levels[:1]
	}
	for _, p := range levels {
		if allocs := testutil.AllocsPerRunAt(p, 1000, 100, func() { f.Solve(x, bvec) }); allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: supernodal Solve allocates %v objects, want 0", p, allocs)
		}
		allocs := testutil.AllocsPerRunAt(p, 1000, 100, func() {
			if _, err := s.Factorize(a, f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: reused supernodal Factorize allocates %v objects, want 0", p, allocs)
		}
		if allocs := testutil.AllocsPerRunAt(p, 1000, 100, func() { f.SolveBatch(xs, bs) }); allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: supernodal SolveBatch allocates %v objects, want 0", p, allocs)
		}
	}
}

// TestSupernodalNotPositiveDefinite: an indefinite system fails with
// ErrNotPositiveDefinite, reporting the column and pivot a serial
// ascending factorization meets first at every GOMAXPROCS, and the
// symbolic object stays reusable afterwards.
func TestSupernodalNotPositiveDefinite(t *testing.T) {
	nx, ny := 30, 20
	good := gridLaplacian(nx, ny, 2)
	s, err := AnalyzeLDL(good, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	s.setSupernodal(true)
	checkPoisonPivots(t, good, s)
	// Same structure, one diagonal entry at the grid centre driven
	// negative.
	if _, err := s.Factorize(poisoned(good, []int{(ny/2)*nx + nx/2}), nil); !errors.Is(err, ErrNotPositiveDefinite) {
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

// poisoned returns a copy of a (sharing its structure) with the diagonal
// entries of the given original-order nodes set to −1.
func poisoned(a *CSR, nodes []int) *CSR {
	bad := &CSR{N: a.N, RowPtr: a.RowPtr, Col: a.Col, Val: slices.Clone(a.Val)}
	for _, c := range nodes {
		for p := bad.RowPtr[c]; p < bad.RowPtr[c+1]; p++ {
			if bad.Col[p] == c {
				bad.Val[p] = -1
			}
		}
	}
	return bad
}

// checkPoisonPivots drives the node sets of poisonSets negative in a
// copy of a, failing pivots in different tasks and in the top of s's
// schedule, and checks that every GOMAXPROCS level reports the column
// and pivot the serial ascending factorization meets first.
func checkPoisonPivots(t *testing.T, a *CSR, s *LDLSymbolic) {
	t.Helper()
	for _, nodes := range poisonSets(s) {
		bad := poisoned(a, nodes)
		_, want := factorSerialOracle(s, bad)
		if !errors.Is(want, ErrNotPositiveDefinite) {
			t.Fatalf("poison %v: serial oracle got %v, want ErrNotPositiveDefinite", nodes, want)
		}
		for _, p := range testutil.ProcsLevels {
			testutil.WithProcs(p, func() {
				if _, err := s.Factorize(bad, nil); err == nil || err.Error() != want.Error() {
					t.Errorf("poison %v GOMAXPROCS=%d: got %v, want %v", nodes, p, err, want)
				}
			})
		}
	}
}

// poisonSets returns sets of original-order nodes to drive negative so
// that pivots fail in different parts of s's schedule — where the lowest
// failing supernode must win: the lowest top supernode with the highest
// task root, the first task's root with the highest top supernode (above
// it, so the top must stop at the task's failure), and the roots of the
// first two tasks (apart when two workers run them).
func poisonSets(s *LDLSymbolic) [][]int {
	sp := s.super
	col := func(sn int32) int { return s.perm[sp.snPtr[sn]] }
	root := func(t int) int32 { sns := sp.taskSupernodes(t); return sns[len(sns)-1] }
	lastRoot := int32(-1)
	for t := range len(sp.taskPtr) - 1 {
		lastRoot = max(lastRoot, root(t))
	}
	return [][]int{
		{col(sp.top[0]), col(lastRoot)},
		{col(root(0)), col(sp.top[len(sp.top)-1])},
		{col(root(0)), col(root(1))},
	}
}

// factorSerialOracle is the supernodal factorization as one serial
// ascending sweep over every supernode, stopping at the first failing
// one — the order the subtree schedule must reproduce bit for bit.
func factorSerialOracle(s *LDLSymbolic, a *CSR) (*LDLNumeric, error) {
	f := &LDLNumeric{s: s, lx: make([]float64, s.super.panelNNZ),
		d: make([]float64, s.n), invd: make([]float64, s.n), super: true}
	s.ensureSuperScratch(true)
	for sn := 0; sn < s.super.nsn; sn++ {
		if k, dk := f.factorSupernode(sn, a, &s.sw[0]); k >= 0 {
			return nil, fmt.Errorf("%w: pivot %g at permuted index %d", ErrNotPositiveDefinite, dk, k)
		}
	}
	return f, nil
}

// checkSchedule verifies the subtree schedule's invariants: every
// supernode is in exactly one task or in the top; each task is one whole
// subtree of the supernodal etree, listed ascending, whose root's parent
// is in the top; the top is closed under parents; the tasks come in
// descending work, and one holds more than half the work only if it is a
// single leaf; every forward log is exactly the suffix of the below rows
// that lie above the task root, each owned by a top ancestor of that
// root; and merge lists the top and the logging task supernodes,
// ascending.
func checkSchedule(s *LDLSymbolic) error {
	sp := s.super
	nsn := sp.nsn
	parent := make([]int, nsn)
	work := make([]int, nsn)
	for sn := 0; sn < nsn; sn++ {
		parent[sn] = -1
		if p := sp.rowPtr[sn] + sp.snPtr[sn+1] - sp.snPtr[sn]; p < sp.rowPtr[sn+1] {
			parent[sn] = int(sp.snOf[sp.rows[p]])
		}
		work[sn] += sp.panelPtr[sn+1] - sp.panelPtr[sn]
		if p := parent[sn]; p >= 0 {
			work[p] += work[sn]
		}
	}
	const top = -1
	task := make([]int, nsn)
	for sn := range task {
		task[sn] = -2
	}
	for _, sn := range sp.top {
		task[sn] = top
	}
	if !slices.IsSorted(sp.top) {
		return fmt.Errorf("top %v not ascending", sp.top)
	}
	ntask := len(sp.taskPtr) - 1
	roots := make([]int, ntask)
	for t := range ntask {
		sns := sp.taskSupernodes(t)
		if len(sns) == 0 || !slices.IsSorted(sns) {
			return fmt.Errorf("task %d empty or not ascending", t)
		}
		for _, sn := range sns {
			if task[sn] != -2 {
				return fmt.Errorf("supernode %d in task %d and in %d", sn, t, task[sn])
			}
			task[sn] = t
		}
		roots[t] = int(sns[len(sns)-1])
	}
	leaf := make([]bool, nsn)
	for sn := range leaf {
		leaf[sn] = true
	}
	for _, p := range parent {
		if p >= 0 {
			leaf[p] = false
		}
	}
	for sn := 0; sn < nsn; sn++ {
		t, p := task[sn], parent[sn]
		switch {
		case t == -2:
			return fmt.Errorf("supernode %d in no task and not in the top", sn)
		case t == top && p >= 0 && task[p] != top:
			return fmt.Errorf("top supernode %d has parent %d outside the top", sn, p)
		case t >= 0 && sn == roots[t] && p >= 0 && task[p] != top:
			return fmt.Errorf("task %d root %d has parent %d outside the top", t, sn, p)
		case t >= 0 && sn != roots[t] && (p < 0 || task[p] != t):
			return fmt.Errorf("task %d is not a whole subtree: supernode %d, parent %d in task %d", t, sn, p, task[max(p, 0)])
		}
	}
	total := 0
	for sn, p := range parent {
		if p < 0 {
			total += work[sn]
		}
	}
	for t, r := range roots {
		if t > 0 && work[r] > work[roots[t-1]] {
			return fmt.Errorf("task %d (work %d) after task %d (work %d)", t, work[r], t-1, work[roots[t-1]])
		}
		if 2*work[r] > total && !leaf[r] {
			return fmt.Errorf("task %d holds %d of %d panel floats and could split", t, work[r], total)
		}
	}
	var merge []int32
	for sn := 0; sn < nsn; sn++ {
		lg := int(sp.logPtr[sn+1] - sp.logPtr[sn])
		t := task[sn]
		if t == top {
			if lg != 0 {
				return fmt.Errorf("top supernode %d has a %d-row log", sn, lg)
			}
			merge = append(merge, int32(sn))
			continue
		}
		if lg > 0 {
			merge = append(merge, int32(sn))
		}
		r := roots[t]
		below := sp.rows[int(sp.rowPtr[sn])+int(sp.snPtr[sn+1]-sp.snPtr[sn]) : sp.rowPtr[sn+1]]
		for i, row := range below {
			o := int(sp.snOf[row])
			logged := i >= len(below)-lg
			if logged != (task[o] == top) {
				return fmt.Errorf("supernode %d row %d (owner %d, task %d): logged=%v", sn, row, o, task[o], logged)
			}
			if logged {
				a := r
				for a >= 0 && a != o {
					a = parent[a]
				}
				if a != o {
					return fmt.Errorf("supernode %d logs row %d, not above its task root %d", sn, row, r)
				}
			}
		}
	}
	if !slices.Equal(merge, sp.merge) {
		return fmt.Errorf("merge list %v, want %v", sp.merge, merge)
	}
	return nil
}

// TestSupernodalSchedule checks the subtree schedule's invariants on grid
// Laplacians under every ordering and on the width-1 partition, and that
// the ND-ordered grids split into several tasks.
func TestSupernodalSchedule(t *testing.T) {
	ordName := map[Ordering]string{OrderNatural: "natural", OrderRCM: "RCM", OrderND: "ND", OrderAuto: "auto"}
	for _, g := range [][2]int{{23, 20}, {70, 60}} {
		a := gridLaplacian(g[0], g[1], 0.5)
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderND, OrderAuto} {
			for _, width1 := range []bool{false, true} {
				s, err := AnalyzeLDL(a, ord)
				if err != nil {
					t.Fatal(err)
				}
				if width1 {
					s.buildSupernodes(1, false, true)
				}
				s.setSupernodal(true)
				if err := checkSchedule(s); err != nil {
					t.Errorf("%dx%d %s width1=%v: %v", g[0], g[1], ordName[ord], width1, err)
				}
				if nt := len(s.super.taskPtr) - 1; ord == OrderND && nt < 2 {
					t.Errorf("%dx%d ND width1=%v: %d subtree tasks, want ≥ 2", g[0], g[1], width1, nt)
				}
			}
		}
	}
}

// TestSupernodalSubtreeBitIdentical runs checkBitIdentical on grid
// Laplacians under ND and RCM orderings. (The simulator's own systems
// are covered by the external stack tests.)
func TestSupernodalSubtreeBitIdentical(t *testing.T) {
	for _, ord := range []Ordering{OrderND, OrderRCM} {
		a := gridLaplacian(60, 50, 0.5)
		s, err := AnalyzeLDL(a, ord)
		if err != nil {
			t.Fatal(err)
		}
		s.setSupernodal(true)
		checkBitIdentical(t, a, s)
	}
}

// checkBitIdentical pins the subtree-parallel kernels on (a, s) to their
// serial oracles bit for bit at every GOMAXPROCS level: L and D after
// Factorize against the serial ascending factorization (the one-worker
// run included), Solve against the gather-form serial solve, and every
// SolveBatch lane against Solve.
func checkBitIdentical(t *testing.T, a *CSR, s *LDLSymbolic) {
	t.Helper()
	ref, err := factorSerialOracle(s, a)
	if err != nil {
		t.Fatal(err)
	}
	lx, d := slices.Clone(ref.lx), slices.Clone(ref.d)
	rng := rand.New(rand.NewSource(int64(a.N)))
	bs := make([][]float64, 3)
	for r := range bs {
		bs[r] = make([]float64, a.N)
		for i := range bs[r] {
			bs[r][i] = 300 + 50*rng.NormFloat64()
		}
	}
	for _, p := range testutil.ProcsLevels {
		testutil.WithProcs(p, func() {
			f, err := s.Factorize(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			if i := firstBitDiff(f.lx, lx); i >= 0 {
				t.Fatalf("GOMAXPROCS=%d: L[%d]=%g serial %g", p, i, f.lx[i], lx[i])
			}
			if i := firstBitDiff(f.d, d); i >= 0 {
				t.Fatalf("GOMAXPROCS=%d: D[%d]=%g serial %g", p, i, f.d[i], d[i])
			}
			xs := make([][]float64, len(bs))
			for r := range xs {
				xs[r] = make([]float64, a.N)
			}
			f.SolveBatch(xs, bs)
			got := make([]float64, a.N)
			want := make([]float64, a.N)
			for r, b := range bs {
				solveGatherOracle(f, want, b)
				f.Solve(got, b)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("GOMAXPROCS=%d rhs %d: Solve x[%d]=%g oracle %g", p, r, i, got[i], want[i])
				}
				if i := firstBitDiff(xs[r], got); i >= 0 {
					t.Fatalf("GOMAXPROCS=%d rhs %d: SolveBatch x[%d]=%g Solve %g", p, r, i, xs[r][i], got[i])
				}
			}
		})
	}
}

// firstBitDiff returns the first index where got and want differ in
// their bits, or -1.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
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
	s.ensureSuperScratch(false)
	if len(s.w) != s.n {
		s.w = make([]float64, s.n)
	}
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
		f.backwardSuper(sn, s.sw[0].acc)
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

// TestSupernodalForkPanicReachesCaller: a kernel panic on a forked
// subtree worker, or on every worker, does not kill the process — the
// fork waits for its workers and re-panics on the caller's goroutine,
// where a recover sees it — and the symbolic object then factorizes and
// solves as before.
func TestSupernodalForkPanicReachesCaller(t *testing.T) {
	a := gridLaplacian(30, 25, 2)
	s, err := AnalyzeLDL(a, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	s.setSupernodal(true)
	if nt := len(s.super.taskPtr) - 1; nt < 2 {
		t.Fatalf("schedule has %d subtree tasks, want ≥ 2 (nothing would fork)", nt)
	}
	forkPanic := func(kernel func(*LDLNumeric, int, *superScratch)) (p any) {
		defer func() { p = recover() }()
		s.forkTasks(s.ensureSuperScratch(false), kernel, nil, nil)
		return nil
	}
	testutil.WithProcs(2, func() {
		// Worker 0 holds its first task until a forked worker has
		// panicked on another.
		forked := make(chan struct{})
		var once sync.Once
		onForked := func(_ *LDLNumeric, _ int, ws *superScratch) {
			if ws == &s.sw[0] {
				<-forked
				return
			}
			once.Do(func() { close(forked) })
			panic("forked worker")
		}
		if p := forkPanic(onForked); p != "forked worker" {
			t.Errorf("forked worker's panic: caller recovered %v", p)
		}
		everywhere := func(*LDLNumeric, int, *superScratch) { panic("every worker") }
		if p := forkPanic(everywhere); p != "every worker" {
			t.Errorf("every worker's panic: caller recovered %v", p)
		}
		f, err := s.Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.N)
		b[0] = 1
		x := make([]float64, a.N)
		f.Solve(x, b)
		if res := residual(a, x, b); res > 1e-10 {
			t.Fatalf("residual %g after the recovered panics", res)
		}
	})
}
