package rcnet

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/units"
)

// Multirate stepping support: the backward-Euler system matrix depends
// only on (flow > 0, dt), so the cached-LDLᵀ direct solver makes long
// macro-steps as cheap as base ticks once their factors exist. The
// adaptive stepping engine drives Step with varying dt, estimates the
// local error of a long step by step doubling (StepWithEstimate), and
// rolls a rejected step back through a TransientState snapshot.

// TransientState is a snapshot of a model's mutable integration state:
// the node temperatures and the coolant boundary-temperature profile.
// Power (SetLayerPower) and flow (SetFlow) are inputs, not state, and are
// restored by the caller re-installing them. The zero value is ready to
// use; buffers are allocated on first SaveTransient and reused after.
type TransientState struct {
	temp   []float64
	boundT []float64
	saved  bool
}

// SaveTransient snapshots the model's transient state into st.
func (m *Model) SaveTransient(st *TransientState) {
	if len(st.temp) != m.n {
		st.temp = make([]float64, m.n)
		st.boundT = make([]float64, m.n)
	}
	copy(st.temp, m.temp)
	copy(st.boundT, m.boundT)
	st.saved = true
}

// RestoreTransient rolls the model back to a previously saved snapshot.
func (m *Model) RestoreTransient(st *TransientState) error {
	if !st.saved || len(st.temp) != m.n {
		return fmt.Errorf("rcnet: transient snapshot does not match model (%d nodes)", m.n)
	}
	copy(m.temp, st.temp)
	copy(m.boundT, st.boundT)
	return nil
}

// SystemCSR assembles the backward-Euler system matrix at dt and returns
// it, for benchmarks that analyze and refactorize outside the model's
// solver cache (the paper-resolution factor/fill trackers of the
// benchmark registry). The returned matrix aliases the model's assembly
// buffer: it stays valid until the next Step, SteadyState or SystemCSR
// call and must not be mutated.
func (m *Model) SystemCSR(dt units.Second) (*mat.CSR, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("rcnet: non-positive dt %v", dt)
	}
	m.buildSystem(float64(dt))
	return m.sys, nil
}

// StepWithEstimate advances the transient solution by dt like Step, while
// estimating the local time-discretization error by step doubling: the
// result of one backward-Euler step of dt is compared against two chained
// steps of dt/2 from the same initial state. The model keeps the more
// accurate two-half-step solution; the returned estimate is the maximum
// absolute node difference between the two solutions (K ≡ °C).
//
// With the default direct solver the three solves are cached-factor
// triangular sweeps once the dt and dt/2 factors exist — and when dt is
// a power-of-two multiple of the base tick, dt/2 is the next macro-step
// rung down, so the estimator introduces at most one extra factor key.
func (m *Model) StepWithEstimate(dt units.Second) (float64, error) {
	if dt <= 0 {
		return 0, fmt.Errorf("rcnet: non-positive dt %v", dt)
	}
	if len(m.estFull) != m.n {
		m.estFull = make([]float64, m.n)
	}
	m.SaveTransient(&m.estState)
	if err := m.Step(dt); err != nil {
		return 0, err
	}
	copy(m.estFull, m.temp)
	if err := m.RestoreTransient(&m.estState); err != nil {
		return 0, err
	}
	half := dt / 2
	if err := m.Step(half); err != nil {
		return 0, err
	}
	if err := m.Step(half); err != nil {
		return 0, err
	}
	est := 0.0
	for i, v := range m.temp {
		if d := math.Abs(v - m.estFull[i]); d > est {
			est = d
		}
	}
	return est, nil
}
