// Package mat provides the small amount of numerical linear algebra the
// thermal solver needs: compressed-sparse-row matrices, a sparse LDLᵀ
// direct solver (symbolic analysis once per structure, numeric factors
// per matrix, allocation-free triangular sweeps) for the symmetric
// positive definite systems that arise from RC thermal networks, a
// Jacobi-preconditioned conjugate-gradient solver the tests use as an
// independent reference, and a dense LU solver for the tiny normal
// equations of the ARMA fit.
//
// Large systems (n ≥ 4096) run the supernodal dense-panel kernels
// (ldlt_super.go). Their analysis also fixes a subtree schedule:
// independent subtrees of the supernodal elimination tree, factorized
// and swept on min(GOMAXPROCS, #subtrees) goroutines, plus a serial top
// of their ancestors. The forward sweep logs each subtree's updates to
// the top and replays them in one ascending pass, so every entry
// receives its updates in the serial order: results are bit-identical
// at any GOMAXPROCS. There is no knob; one worker runs the same code
// inline.
//
// Smaller systems run the scalar column kernels, and their analysis fixes
// a stream plan instead (ldlt_stream.go): a top closed under elimination
// tree ancestors and two streams, each a union of complete subtrees
// balanced by nnz(L). A lone Solve sweeps the two streams side by side on
// one core, so that their independent dependency chains overlap, and the
// top in one ascending forward pass and one descending backward pass.
// Every entry still receives its subtractions in ascending column order,
// every backward gather keeps its ascending row order, and a column whose
// forward value is exactly zero still scatters nothing, so the result is
// bit-identical to the one-column serial sweeps. A chain-shaped tree (RCM
// below 512 nodes) gets an all-top plan, which is the serial loop.
//
// Go has no numerical ecosystem in the standard library, so this package is
// deliberately self-contained and tuned only as far as the simulator
// requires: matrices are assembled once per configuration, values (but not
// structure) are updated when the coolant flow rate changes, and systems are
// solved every simulation tick.
package mat

import (
	"fmt"
	"math"
	"slices"
)

// Coord is a single (row, col, value) triplet used during assembly.
type Coord struct {
	Row, Col int
	Val      float64
}

// Builder accumulates triplets and produces a CSR matrix. Duplicate
// (row, col) entries are summed, matching the usual finite-volume assembly
// convention where each neighbour contribution is added independently.
type Builder struct {
	n      int
	coords []Coord
}

// NewBuilder returns a Builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add accumulates v at (row, col).
func (b *Builder) Add(row, col int, v float64) {
	if row < 0 || row >= b.n || col < 0 || col >= b.n {
		panic(fmt.Sprintf("mat: Add(%d,%d) out of range for n=%d", row, col, b.n))
	}
	b.coords = append(b.coords, Coord{row, col, v})
}

// Grow pre-sizes the triplet buffer for n upcoming Adds, sparing the
// incremental append growth when the caller knows the entry count up
// front (the thermal assembly adds a predictable ~7 entries per node).
func (b *Builder) Grow(n int) {
	if need := len(b.coords) + n; cap(b.coords) < need {
		coords := make([]Coord, len(b.coords), need)
		copy(coords, b.coords)
		b.coords = coords
	}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Build compacts the accumulated triplets into a CSR matrix.
func (b *Builder) Build() *CSR {
	slices.SortFunc(b.coords, func(ci, cj Coord) int {
		if ci.Row != cj.Row {
			return ci.Row - cj.Row
		}
		return ci.Col - cj.Col
	})
	// Count the distinct entries first, so the matrix — often kept for a
	// platform's lifetime — holds exactly its nnz, not the duplicates.
	nnz := 0
	for i := range b.coords {
		if i == 0 || b.coords[i].Row != b.coords[i-1].Row || b.coords[i].Col != b.coords[i-1].Col {
			nnz++
		}
	}
	m := &CSR{
		N:      b.n,
		RowPtr: make([]int, b.n+1),
		Col:    make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < len(b.coords); {
		j := i
		sum := 0.0
		for j < len(b.coords) && b.coords[j].Row == b.coords[i].Row && b.coords[j].Col == b.coords[i].Col {
			sum += b.coords[j].Val
			j++
		}
		m.Col = append(m.Col, b.coords[i].Col)
		m.Val = append(m.Val, sum)
		m.RowPtr[b.coords[i].Row+1]++
		i = j
	}
	for r := 0; r < b.n; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the value at (row, col); zero if the entry is not stored.
func (m *CSR) At(row, col int) float64 {
	for k := m.RowPtr[row]; k < m.RowPtr[row+1]; k++ {
		if m.Col[k] == col {
			return m.Val[k]
		}
	}
	return 0
}

// Set overwrites the stored entry at (row, col). It panics if the entry is
// not part of the sparsity structure; runtime resistivity updates must not
// change the structure.
func (m *CSR) Set(row, col int, v float64) {
	for k := m.RowPtr[row]; k < m.RowPtr[row+1]; k++ {
		if m.Col[k] == col {
			m.Val[k] = v
			return
		}
	}
	panic(fmt.Sprintf("mat: Set(%d,%d) not in sparsity structure", row, col))
}

// AddAt adds v to the stored entry at (row, col), panicking if absent.
func (m *CSR) AddAt(row, col int, v float64) {
	for k := m.RowPtr[row]; k < m.RowPtr[row+1]; k++ {
		if m.Col[k] == col {
			m.Val[k] += v
			return
		}
	}
	panic(fmt.Sprintf("mat: AddAt(%d,%d) not in sparsity structure", row, col))
}

// MulVec computes dst = m·x. dst and x must have length N and must not alias.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic("mat: MulVec dimension mismatch")
	}
	for r := 0; r < m.N; r++ {
		sum := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			sum += m.Val[k] * x[m.Col[k]]
		}
		dst[r] = sum
	}
}

// Diagonal extracts the matrix diagonal into dst (length N).
func (m *CSR) Diagonal(dst []float64) {
	if len(dst) != m.N {
		panic("mat: Diagonal dimension mismatch")
	}
	for r := 0; r < m.N; r++ {
		dst[r] = 0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if m.Col[k] == r {
				dst[r] = m.Val[k]
				break
			}
		}
	}
}

// DiagIndex writes the position of each row's diagonal entry within Val
// into dst (length N), so callers updating only the diagonal of a
// fixed-sparsity matrix can skip the per-row column scan. It errors if any
// row has no stored diagonal.
func (m *CSR) DiagIndex(dst []int) error {
	if len(dst) != m.N {
		panic("mat: DiagIndex dimension mismatch")
	}
	for r := 0; r < m.N; r++ {
		dst[r] = -1
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if m.Col[k] == r {
				dst[r] = k
				break
			}
		}
		if dst[r] < 0 {
			return fmt.Errorf("mat: row %d has no stored diagonal entry", r)
		}
	}
	return nil
}

// Clone returns a deep copy sharing no storage with m.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		N:      m.N,
		RowPtr: append([]int(nil), m.RowPtr...),
		Col:    append([]int(nil), m.Col...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// IsSymmetric reports whether the matrix is symmetric to within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for r := 0; r < m.N; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.Col[k]
			if math.Abs(m.Val[k]-m.At(c, r)) > tol {
				return false
			}
		}
	}
	return true
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot dimension mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// NormInf returns the maximum absolute entry of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AXPY computes y += alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: AXPY dimension mismatch")
	}
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}
