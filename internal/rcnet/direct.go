package rcnet

import "repro/internal/mat"

// solveDirect runs the cached-factorization direct solve of the current
// system (m.sys, m.rhs) into m.temp. The symbolic analysis is done once
// per model (or shared, see Network.NewModel); numeric factors are cached
// per factorKey in the model's factor source, so the per-tick cost after
// the first solve of a key is two triangular sweeps — and zero
// allocations.
func (m *Model) solveDirect(dt float64) error {
	num, err := m.factorFor(dt)
	if err != nil {
		return err
	}
	num.Solve(m.temp, m.rhs)
	return nil
}

// factorFor returns the model's view of the numeric factors for the
// current factorKey. A miss in the model's memo asks the factor
// source, which factorizes on its own miss (through this model's
// symbolic analysis and system matrix) and otherwise hands back the
// factor another model built; the view over it is allocated once per key
// and memoized. The source caches the factor as a view through a fresh
// Clone of the analysis, so it pins none of the building model's solver
// scratch. A failed factorization is an error; the factor source caches
// it, so every later solve of the key reports it without refactorizing.
// This is solveDirect minus the solve itself, shared with the gang
// scheduler's BatchStepper, which solves many models through one factor.
func (m *Model) factorFor(dt float64) (*mat.LDLNumeric, error) {
	key := m.factorKey(dt)
	if v, ok := m.views[key]; ok {
		return v, nil
	}
	if _, err := m.EnsureSymbolic(); err != nil {
		return nil, err
	}
	num, err := m.factors.get(key, func() (*mat.LDLNumeric, error) {
		num, err := m.symb.Factorize(m.sys, nil)
		if err != nil {
			return nil, err
		}
		m.nFactor++
		return num.View(m.symb.Clone()), nil
	})
	if err != nil {
		return nil, err
	}
	view := num.View(m.symb)
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
// All zero before the symbolic analysis has run.
func (m *Model) SupernodeStats() (supernodes int, meanPanelWidth float64, active bool) {
	if m.symb == nil {
		return 0, 0, false
	}
	return m.symb.Supernodes(), m.symb.MeanPanelWidth(), m.symb.Supernodal()
}
