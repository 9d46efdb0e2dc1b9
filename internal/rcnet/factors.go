package rcnet

import (
	"errors"
	"sync"

	"repro/internal/mat"
)

// factorKey identifies one system matrix: the backward-Euler matrix
// A = G + diag(boundG) + diag(C/dt) depends only on the flow setting
// (through the convective boundary conductances) and on dt (0 for steady
// state). Power and coolant-temperature updates only touch the RHS, so a
// controller stepping through its discrete pump ladder revisits a handful
// of keys and never re-factors.
type factorKey struct {
	flow float64
	dt   float64
}

// maxCachedFactors bounds a factor cache (and a model's memo of views
// into one). The working set is one key per (pump setting, tick dt) plus
// the steady-state dt=0 keys of a LUT sweep — pump.NumSettings plus a
// few; 16 leaves slack for mixed transient/steady use. Eviction is FIFO
// and only drops the cache's reference: a factor is never recycled, so a
// model still solving through an evicted factor is unaffected.
const maxCachedFactors = 16

// errFactorPanicked marks a key whose factorization panicked, so the
// models waiting on it are released instead of blocking forever.
var errFactorPanicked = errors.New("rcnet: factorization panicked")

// Factors is a concurrency-safe cache of numeric LDLᵀ factors keyed by
// (flow setting, dt), shared by models built on one symbolic analysis
// with one thermal configuration (NewWithSymbolic): for those models the
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
