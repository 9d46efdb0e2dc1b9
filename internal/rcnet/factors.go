package rcnet

import (
	"errors"
	"sync"

	"repro/internal/mat"
)

// factorKey identifies one system matrix of a network: the backward-Euler
// matrix A = G + diag(boundG) + diag(C/dt) depends only on whether the
// pump runs (boundG is the flow-independent convective conductance at
// any non-zero flow, zero when the pump is off; see SetFlow) and on dt (0
// for steady state). Power, flow and coolant-temperature updates only
// touch the RHS and the coolant march, so a controller stepping through
// its pump ladder, a LUT sweep over every setting and a gang of Max and
// Var runs all share one factor per dt.
type factorKey struct {
	cooled bool // flow > 0
	dt     float64
}

// factorKey returns the key of the model's system matrix at dt.
func (m *Model) factorKey(dt float64) factorKey {
	return factorKey{m.flow > 0, dt}
}

// maxCachedFactors bounds a factor cache (and a model's memo of views
// into one). The working set is one key per tick dt, plus the dt=0 steady
// key and the zero-flow keys of a pump that switches off — a handful; 16
// leaves slack for the adaptive stepper's macro-step rungs. Eviction is FIFO
// and only drops the cache's reference: a factor is never recycled, so a
// model still solving through an evicted factor is unaffected.
const maxCachedFactors = 16

// errFactorPanicked marks a key whose factorization panicked, so the
// models waiting on it are released instead of blocking forever.
var errFactorPanicked = errors.New("rcnet: factorization panicked")

// Factors is a concurrency-safe cache of numeric LDLᵀ factors keyed by
// (flow > 0, dt), shared by models built on one network and one symbolic
// analysis (Network.NewModel): for those models the
// system matrix of a key is the same matrix, and the deterministic
// factorization of the same matrix is the same factor, bit for bit. The
// first model to need a key factorizes it exactly once while concurrent
// requesters wait; every model then solves through its own view of the
// one immutable factor (mat.LDLNumeric.View). A failed factorization is
// cached as well, so every model on the key sees the failure.
//
// A platform owns one per stack shape; a model built without one gets a
// private cache of its own.
type Factors struct {
	mu      sync.Mutex
	entries map[factorKey]*factorEntry
	seq     []factorKey // insertion order, for FIFO eviction
	builds  int
	hits    int
}

// factorEntry is one key's factorization; ready is closed once num/err
// are set.
type factorEntry struct {
	ready chan struct{}
	num   *mat.LDLNumeric
	err   error
}

// NewFactors returns an empty factor cache.
func NewFactors() *Factors {
	return &Factors{entries: map[factorKey]*factorEntry{}}
}

// get returns the factor of key, running build on a miss. Concurrent
// requests for a key being built wait for that build instead of
// repeating it.
func (c *Factors) get(key factorKey, build func() (*mat.LDLNumeric, error)) (*mat.LDLNumeric, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.num, e.err
	}
	e := &factorEntry{ready: make(chan struct{}), err: errFactorPanicked}
	if len(c.seq) >= maxCachedFactors {
		delete(c.entries, c.seq[0])
		c.seq = c.seq[1:]
	}
	c.entries[key] = e
	c.seq = append(c.seq, key)
	c.builds++
	c.mu.Unlock()
	defer close(e.ready)
	e.num, e.err = build()
	return e.num, e.err
}

// Counts returns how many factorizations the cache has run (failed ones
// included) and how many requests it served from an existing entry.
func (c *Factors) Counts() (builds, hits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds, c.hits
}

// Release drops every cached factor. Models keep the factors they
// already hold; later requests factorize afresh.
func (c *Factors) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	c.seq = nil
}
