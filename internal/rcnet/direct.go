package rcnet

import (
	"fmt"

	"repro/internal/mat"
)

// SolverKind selects how the linear systems of Step and SteadyState are
// solved.
type SolverKind int

const (
	// SolverAuto (the default) uses the cached sparse LDLᵀ direct solver
	// and falls back to preconditioned CG if a factorization ever fails
	// (e.g. a degenerate configuration breaks positive definiteness).
	SolverAuto SolverKind = iota
	// SolverDirect forces the LDLᵀ path; factorization failure is a hard
	// error instead of a fallback.
	SolverDirect
	// SolverCG forces preconditioned conjugate gradient (the pre-direct
	// behavior), kept as a cross-check and for configurations whose
	// matrix changes every solve.
	SolverCG
)

// String implements fmt.Stringer.
func (k SolverKind) String() string {
	switch k {
	case SolverAuto:
		return "auto"
	case SolverDirect:
		return "direct"
	case SolverCG:
		return "cg"
	default:
		return fmt.Sprintf("SolverKind(%d)", int(k))
	}
}

// ParseSolver maps a CLI string to a SolverKind.
func ParseSolver(s string) (SolverKind, error) {
	switch s {
	case "", "auto":
		return SolverAuto, nil
	case "direct", "ldlt":
		return SolverDirect, nil
	case "cg", "iterative":
		return SolverCG, nil
	default:
		return 0, fmt.Errorf("rcnet: unknown solver %q (want auto|direct|cg)", s)
	}
}

// solveDirect attempts the cached-factorization direct solve of the
// current system (m.sys, m.rhs) into m.temp. It reports whether the solve
// happened; (false, nil) means the caller should run the CG fallback. The
// symbolic analysis is done once per model (or shared, see
// Network.NewModel); numeric factors are cached per factorKey in the
// model's factor source, so the per-tick cost after the first solve of a
// key is two triangular sweeps — and zero allocations.
func (m *Model) solveDirect(dt float64) (bool, error) {
	num, err := m.factorFor(dt)
	if err != nil || num == nil {
		return false, err
	}
	num.Solve(m.temp, m.rhs)
	return true, nil
}

// factorFor returns the model's view of the numeric factors for the
// current factorKey. A miss in the model's memo asks the factor
// source, which factorizes on its own miss (through this model's
// symbolic analysis and system matrix) and otherwise hands back the
// factor another model built; the view over it is allocated once per key
// and memoized. A nil factor with a nil error means the caller should
// take the CG fallback — the solver is SolverCG, or the key's
// factorization failed under SolverAuto (the key is then memoized as
// broken). This is solveDirect minus the solve itself, shared with the
// gang scheduler's BatchStepper, which solves many models through one
// factor.
func (m *Model) factorFor(dt float64) (*mat.LDLNumeric, error) {
	if m.Cfg.Solver == SolverCG {
		return nil, nil
	}
	key := m.factorKey(dt)
	if v, ok := m.views[key]; ok {
		return v, nil // v == nil: factorization failed before; stay on CG
	}
	var view *mat.LDLNumeric
	_, err := m.EnsureSymbolic()
	if err == nil {
		var num *mat.LDLNumeric
		num, err = m.factors.get(key, func() (*mat.LDLNumeric, error) {
			num, err := m.symb.Factorize(m.sys, nil)
			if err == nil {
				m.nFactor++
			}
			return num, err
		})
		if err == nil {
			view = num.View(m.symb)
		}
	}
	// Under SolverDirect a failure is surfaced; under SolverAuto the key
	// is memoized as broken so every later solve of it goes straight to
	// CG.
	if err != nil && m.Cfg.Solver != SolverAuto {
		return nil, err
	}
	if len(m.viewSeq) >= maxCachedFactors {
		delete(m.views, m.viewSeq[0])
		m.viewSeq = m.viewSeq[1:]
	}
	m.views[key] = view
	m.viewSeq = append(m.viewSeq, key)
	return view, nil
}

// Factorizations returns how many numeric LDLᵀ factorizations this model
// has performed itself — diagnostics for the factor cache: it grows only
// when a (flow > 0, dt) combination is solved for the first time (or
// after eviction) and no other model sharing the factor source has
// factorized it already, never on repeated ticks or on a change between
// non-zero flows. Factors served by the shared source are not counted (see
// Factors.Counts).
func (m *Model) Factorizations() int { return m.nFactor }

// CachedFactors returns the number of live entries in the model's memo
// of factor views.
func (m *Model) CachedFactors() int { return len(m.views) }

// SupernodeStats reports the supernodal partition of the model's direct
// solver: the supernode count, the mean panel width (nodes/supernodes —
// the factor by which the dense panels amortize the scalar kernels'
// per-entry index traffic) and whether the panel kernels are active.
// All zero before the symbolic analysis has run (or under SolverCG).
func (m *Model) SupernodeStats() (supernodes int, meanPanelWidth float64, active bool) {
	if m.symb == nil {
		return 0, 0, false
	}
	return m.symb.Supernodes(), m.symb.MeanPanelWidth(), m.symb.Supernodal()
}
