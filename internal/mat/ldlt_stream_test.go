package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// solveScalarOracle is the scalar Solve as the one-column serial loop:
// the forward scatter over columns ascending (skipping an exact-zero
// multiplier), the diagonal scaling, the backward gather over columns
// descending. The stream plan's interleaved sweeps must reproduce it bit
// for bit.
func solveScalarOracle(f *LDLNumeric, x, b []float64) {
	s := f.s
	n := s.n
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		w[k] = b[s.perm[k]]
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

// checkStreams verifies the stream plan's invariants: every column in
// exactly one of stream 0, stream 1 or the top, each list ascending; the
// top closed under etree ancestors; each stream a union of complete
// subtrees (a non-top column's non-top parent shares its stream); and
// in[j] counting exactly the prefix of column j's rows inside its stream,
// every later row in the top.
func checkStreams(s *LDLSymbolic) error {
	pl := s.plan
	if pl == nil {
		return fmt.Errorf("scalar analysis without a stream plan")
	}
	n := s.n
	if len(pl.cols) != n || len(pl.in) != n || pl.s1 > pl.top || pl.top > n {
		return fmt.Errorf("plan sized %d cols, %d in, s1 %d, top %d for n = %d", len(pl.cols), len(pl.in), pl.s1, pl.top, n)
	}
	sid := make([]int, n)
	for i := range sid {
		sid[i] = -1
	}
	for t, part := range [][]int32{pl.cols[:pl.s1], pl.cols[pl.s1:pl.top], pl.cols[pl.top:]} {
		for k, j := range part {
			if sid[j] >= 0 {
				return fmt.Errorf("column %d listed twice", j)
			}
			if k > 0 && part[k-1] >= j {
				return fmt.Errorf("part %d not ascending at %d", t, k)
			}
			sid[j] = t
		}
	}
	for j := 0; j < n; j++ {
		p := s.parent[j]
		if sid[j] == 2 && p >= 0 && sid[p] != 2 {
			return fmt.Errorf("top column %d has non-top parent %d", j, p)
		}
		if sid[j] < 2 && p >= 0 && sid[p] != 2 && sid[p] != sid[j] {
			return fmt.Errorf("column %d (stream %d) has parent %d in stream %d", j, sid[j], p, sid[p])
		}
		in := int(pl.in[j])
		if sid[j] == 2 && in != 0 {
			return fmt.Errorf("top column %d has in = %d", j, in)
		}
		if in > s.lp[j+1]-s.lp[j] {
			return fmt.Errorf("column %d: in = %d exceeds its %d rows", j, in, s.lp[j+1]-s.lp[j])
		}
		for p := s.lp[j]; p < s.lp[j+1]; p++ {
			r := s.li[p]
			inside := p < s.lp[j]+in
			if inside != (sid[j] < 2 && sid[r] == sid[j]) || !inside && sid[r] != 2 {
				return fmt.Errorf("column %d row %d (stream %d, column stream %d): inside = %v", j, r, sid[r], sid[j], inside)
			}
		}
	}
	return nil
}

// streamSizes returns the column counts of the plan's two streams and top.
func streamSizes(s *LDLSymbolic) (s0, s1, top int) {
	pl := s.plan
	return pl.s1, pl.top - pl.s1, len(pl.cols) - pl.top
}

// streamRangesInterleave reports whether some subtree of the plan's
// streams has, within the column range from its first descendant to its
// root, a column outside it: a plan that treated subtrees as column
// ranges would then scatter that column in the wrong pass.
func streamRangesInterleave(s *LDLSymbolic) bool {
	pl := s.plan
	inTop := make([]bool, s.n)
	for _, j := range pl.cols[pl.top:] {
		inTop[j] = true
	}
	first := make([]int, s.n) // lowest column of each subtree
	for j := range first {
		first[j] = j
	}
	for j := 0; j < s.n; j++ {
		if p := s.parent[j]; p >= 0 {
			first[p] = min(first[p], first[j])
		}
	}
	for r := 0; r < s.n; r++ {
		if p := s.parent[r]; inTop[r] || (p >= 0 && !inTop[p]) {
			continue // not a stream subtree root
		}
		for j := first[r]; j < r; j++ {
			a := j
			for a >= 0 && a < r {
				a = s.parent[a]
			}
			if a != r {
				return true
			}
		}
	}
	return false
}

// streamRHS returns right-hand sides that drive every branch of the
// streamed sweeps: dense random values; a vector that is mostly exact
// zeros, so most forward multipliers take the skip; a unit vector on the
// last original node; and a vector of signed zeros on which the skip is
// observable. The last is +0 on the first half of the elimination order
// and -0 on the rest: every entry stays ±0 to the end, a -0 entry keeps
// its sign only while no -0 product is subtracted from it, and an
// unskipped +0 column of L's negative entries would subtract exactly
// such products from its -0 ancestors, whose own ancestors stay -0.
func streamRHS(s *LDLSymbolic, rng *rand.Rand) [][]float64 {
	n := s.n
	dense := make([]float64, n)
	sparse := make([]float64, n)
	unit := make([]float64, n)
	zeros := make([]float64, n)
	for i := range dense {
		dense[i] = rng.Float64()*2 - 1
		if rng.Intn(8) == 0 {
			sparse[i] = rng.NormFloat64()
		}
	}
	if n > 0 {
		unit[n-1] = 1
	}
	for k, i := range s.perm {
		if k >= n/2 {
			zeros[i] = math.Copysign(0, -1)
		}
	}
	return [][]float64{dense, sparse, unit, zeros}
}

// checkStreamsBitIdentical analyzes a, which must get the scalar
// kernels, and checks the plan's invariants and Solve against
// solveScalarOracle bit for bit, on streamRHS's right-hand sides, with x
// separate from b and aliasing it.
func checkStreamsBitIdentical(t *testing.T, a *CSR, ord Ordering) *LDLSymbolic {
	t.Helper()
	s, err := AnalyzeLDL(a, ord)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStreams(s); err != nil {
		t.Fatal(err)
	}
	f, err := s.Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	want := make([]float64, n)
	got := make([]float64, n)
	for r, b := range streamRHS(s, rand.New(rand.NewSource(int64(n)))) {
		solveScalarOracle(f, want, b)
		f.Solve(got, b)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("rhs %d: x[%d] = %v, oracle %v", r, i, got[i], want[i])
		}
		alias := append([]float64(nil), b...)
		f.Solve(alias, alias)
		if i := firstBitDiff(alias, want); i >= 0 {
			t.Fatalf("rhs %d aliased: x[%d] = %v, oracle %v", r, i, alias[i], want[i])
		}
	}
	s0, s1, top := streamSizes(s)
	t.Logf("n = %d: streams %d + %d columns, top %d", n, s0, s1, top)
	return s
}

// joinedRandSPD places two independent random SPD blocks of n nodes on
// the diagonal and couples both to one last node: in natural order the
// elimination tree is two random subtrees under that node.
func joinedRandSPD(n int, rng *rand.Rand) *CSR {
	b := NewBuilder(2*n + 1)
	for blk, off := range []int{0, n} {
		a := randSPD(n, 1, rng)
		for i := 0; i < n; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				b.Add(off+i, off+a.Col[k], a.Val[k])
			}
		}
		for k := 0; k < 3; k++ {
			i := off + rng.Intn(n)
			v := -0.5 - float64(blk)
			b.Add(i, 2*n, v)
			b.Add(2*n, i, v)
			b.Add(i, i, -v)
			b.Add(2*n, 2*n, -v)
		}
	}
	b.Add(2*n, 2*n, 1)
	return b.Build()
}

// TestScalarStreamsBitIdentical pins the two-stream scalar Solve to the
// one-column serial loop on grid Laplacians below ndThreshold (RCM: a
// chain, so an all-top plan) and above it (ND: two streams), on random
// SPD systems, and on two random blocks joined by one node.
func TestScalarStreamsBitIdentical(t *testing.T) {
	const anyPlan, allTop, twoStreams = 0, 1, 2
	rng := rand.New(rand.NewSource(30))
	cases := []struct {
		name string
		a    *CSR
		ord  Ordering
		plan int
	}{
		{"grid-20x16-rcm", gridLaplacian(20, 16, 2), OrderAuto, allTop},
		{"grid-40x30-nd", gridLaplacian(40, 30, 0.5), OrderAuto, twoStreams},
		{"grid-64x60-nd", gridLaplacian(64, 60, 1e-3), OrderAuto, twoStreams},
		{"randspd-60", randSPD(60, 2, rng), OrderAuto, anyPlan},
		{"randspd-700", randSPD(700, 1, rng), OrderAuto, anyPlan},
		{"joined-randspd-2x300", joinedRandSPD(300, rng), OrderNatural, twoStreams},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := checkStreamsBitIdentical(t, c.a, c.ord)
			s0, s1, _ := streamSizes(s)
			if c.plan == allTop && s0+s1 > 0 || c.plan == twoStreams && (s0 == 0 || s1 == 0) {
				t.Errorf("streams of %d and %d columns, want plan kind %d", s0, s1, c.plan)
			}
		})
	}
}
