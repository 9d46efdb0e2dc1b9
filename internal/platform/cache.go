package platform

import (
	"sync"
)

// CacheStats is a point-in-time snapshot of a Cache plus the aggregated
// build counters of every platform it currently holds.
type CacheStats struct {
	// Platforms is the number of live cache entries.
	Platforms int
	// Hits counts Get calls that found an existing entry (including ones
	// that waited on an in-flight artifact build — that wait is the
	// deduplication working, not a miss).
	Hits int64
	// Misses counts Get calls that created a new entry.
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Builds aggregates the per-platform build counters over the live
	// entries (evicted platforms take their counts with them).
	Builds Stats
}

// Cache is a concurrency-safe, optionally LRU-bounded table of Platforms
// keyed by canonical Spec. It is the process-lifetime warm-start store of
// cmd/coolserved and the shared-artifact seam of coolsim and the
// experiment engine.
type Cache struct {
	mu        sync.Mutex
	max       int    // entry bound; <= 0 means unbounded
	dir       string // artifact persistence directory ("" = memory only)
	entries   map[Spec]*Platform
	order     []Spec // LRU order, most recently used last
	hits      int64
	misses    int64
	evictions int64
}

// NewCache returns a cache bounded to max platforms (<= 0: unbounded).
// The bound counts stacks, not artifacts: one entry holds everything for
// one (layers, cooling class, grid, thermal config) combination.
func NewCache(max int) *Cache {
	return NewDiskCache(max, "")
}

// NewDiskCache is NewCache plus artifact persistence: platforms built by
// Get warm-start their flow LUTs from spec-keyed JSON files in dir (see
// NewWithDir) and save freshly swept ones there, so a restarted process
// skips the previous one's steady-state sweeps. An empty dir keeps
// everything in memory.
func NewDiskCache(max int, dir string) *Cache {
	return &Cache{max: max, dir: dir, entries: map[Spec]*Platform{}}
}

// Get returns the cached platform for spec, building the skeleton on a
// miss. Artifact builds (symbolic analysis, LUT, weights) remain lazy and
// deduplicated on the returned platform itself, so concurrent Gets of the
// same spec never duplicate work. An evicted platform stays valid for the
// runs already holding it; it is simply no longer handed out, and its
// shared numeric factors are released (those runs keep the ones they
// hold).
func (c *Cache) Get(spec Spec) (*Platform, error) {
	spec = spec.Canonical()
	c.mu.Lock()
	if p, ok := c.entries[spec]; ok {
		c.hits++
		c.touchLocked(spec)
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	// Build the skeleton outside the lock (grid construction is real
	// work at paper resolution); a concurrent duplicate build of the same
	// spec is harmless — the loser is discarded below.
	p, err := NewWithDir(spec, c.dir)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.entries[spec]; ok {
		c.hits++
		c.touchLocked(spec)
		return prior, nil
	}
	c.misses++
	c.entries[spec] = p
	c.order = append(c.order, spec)
	for c.max > 0 && len(c.order) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		c.entries[oldest].factors.Release()
		delete(c.entries, oldest)
		c.evictions++
	}
	return p, nil
}

// touchLocked moves spec to the most-recently-used end. Called with c.mu
// held and spec present.
func (c *Cache) touchLocked(spec Spec) {
	for i, s := range c.order {
		if s == spec {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = spec
			return
		}
	}
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the cache counters and aggregates the build counters of
// the live platforms.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	platforms := make([]*Platform, 0, len(c.entries))
	for _, p := range c.entries {
		platforms = append(platforms, p)
	}
	st := CacheStats{
		Platforms: len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	c.mu.Unlock()
	nodes := 0.0
	for _, p := range platforms {
		ps := p.Stats()
		st.Builds.SymbolicBuilds += ps.SymbolicBuilds
		st.Builds.LUTBuilds += ps.LUTBuilds
		st.Builds.WeightBuilds += ps.WeightBuilds
		st.Builds.Models += ps.Models
		st.Builds.LUTDiskLoads += ps.LUTDiskLoads
		st.Builds.WeightDiskLoads += ps.WeightDiskLoads
		st.Builds.FactorBuilds += ps.FactorBuilds
		st.Builds.FactorHits += ps.FactorHits
		st.Builds.Supernodes += ps.Supernodes
		nodes += ps.MeanPanelWidth * float64(ps.Supernodes)
	}
	// Node-weighted mean keeps the ratio exact across heterogeneous
	// platforms: Σn / Σsupernodes.
	if st.Builds.Supernodes > 0 {
		st.Builds.MeanPanelWidth = nodes / float64(st.Builds.Supernodes)
	}
	return st
}
