package coolsim

import (
	"context"
	"fmt"

	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PlatformCache shares the expensive per-stack artifacts — floorplan,
// thermal grid, pump model, the direct solver's symbolic analysis and
// numeric factors, the flow-rate controller's lookup table and the TALB
// weight table — across every Run, RunMany call and Session that uses it
// (WithPlatformCache). Scenarios that only differ in policy, workload,
// seed, duration or faults share one platform; each artifact is built at
// most once, by the first run that needs it, while concurrent runs of the
// same shape wait for that build instead of repeating it.
//
// A PlatformCache is safe for unlimited concurrent use and is designed to
// live for the whole process (cmd/coolserved keeps one so a second job on
// a warm stack skips seconds of setup).
type PlatformCache struct {
	cache *platform.Cache
}

// NewPlatformCache returns a cache bounded to maxStacks platforms;
// maxStacks <= 0 is unbounded. The bound is per stack shape (layers ×
// cooling class × grid × thermal config), not per scenario — the default
// experiment space fits in a handful of entries. Beyond the bound the
// least-recently-used platform is evicted (in-flight runs holding it are
// unaffected).
func NewPlatformCache(maxStacks int) *PlatformCache {
	return &PlatformCache{cache: platform.NewCache(maxStacks)}
}

// NewPlatformCacheDir is NewPlatformCache plus on-disk persistence of the
// flow-rate controller's lookup tables and the TALB weight tables: a
// platform whose artifacts were built by a previous process (or a lutgen
// run) sharing dir loads them in milliseconds instead of re-running
// seconds of steady-state analysis, and freshly built tables are saved
// back (atomically, best-effort). Stats().LUTDiskLoads and
// .WeightDiskLoads count the warm starts. cmd/coolserved exposes this as
// -cache-dir so a restarted daemon keeps its sweeps.
func NewPlatformCacheDir(maxStacks int, dir string) *PlatformCache {
	return &PlatformCache{cache: platform.NewDiskCache(maxStacks, dir)}
}

// PlatformCacheStats is a point-in-time snapshot of a PlatformCache.
type PlatformCacheStats struct {
	// Platforms is the number of cached stack shapes.
	Platforms int `json:"platforms"`
	// Hits / Misses count cache lookups; Evictions counts LRU drops.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// SymbolicBuilds / LUTBuilds / WeightBuilds count the expensive
	// artifact constructions across the live platforms. A warm second
	// run leaves all three unchanged.
	SymbolicBuilds int `json:"symbolic_builds"`
	LUTBuilds      int `json:"lut_builds"`
	WeightBuilds   int `json:"weight_builds"`
	// LUTDiskLoads counts LUTs warm-started from the persistence
	// directory (NewPlatformCacheDir) instead of swept;
	// WeightDiskLoads the same for TALB weight tables.
	LUTDiskLoads    int `json:"lut_disk_loads"`
	WeightDiskLoads int `json:"weight_disk_loads"`
	// FactorBuilds counts the numeric LDLᵀ factorizations the runs'
	// thermal models performed: one per distinct (flow > 0, dt) key per
	// platform — every non-zero pump setting gives the same matrix —
	// shared by every later run on it. FactorHits counts
	// the per-model factor requests served by a factor another run had
	// already built. A warm second batch of the same shape leaves
	// FactorBuilds unchanged.
	FactorBuilds int `json:"factor_builds"`
	FactorHits   int `json:"factor_hits"`
	// Supernodes is the total supernode count of the built symbolic
	// analyses across the live platforms; MeanPanelWidth the node-weighted
	// mean panel width of the direct solver's supernodal partitions
	// (0 until an analysis has been built).
	Supernodes     int     `json:"supernodes"`
	MeanPanelWidth float64 `json:"mean_panel_width"`
}

// Stats snapshots the cache counters (the coolserved metrics endpoint
// serves these, and tests assert warm runs build nothing).
func (pc *PlatformCache) Stats() PlatformCacheStats {
	st := pc.cache.Stats()
	return PlatformCacheStats{
		Platforms:       st.Platforms,
		Hits:            st.Hits,
		Misses:          st.Misses,
		Evictions:       st.Evictions,
		SymbolicBuilds:  st.Builds.SymbolicBuilds,
		LUTBuilds:       st.Builds.LUTBuilds,
		WeightBuilds:    st.Builds.WeightBuilds,
		LUTDiskLoads:    st.Builds.LUTDiskLoads,
		WeightDiskLoads: st.Builds.WeightDiskLoads,
		FactorBuilds:    st.Builds.FactorBuilds,
		FactorHits:      st.Builds.FactorHits,
		Supernodes:      st.Builds.Supernodes,
		MeanPanelWidth:  st.Builds.MeanPanelWidth,
	}
}

// Prebuild resolves the scenario's platform from the cache and warms
// exactly the artifacts a run of that scenario would build lazily on
// first use: the direct solver's symbolic analysis, the flow LUT for
// variable-flow cooling, the TALB weight table for the TALB policy.
// Builds are deduplicated with concurrent runs, so calling it while the
// platform is already in use never repeats work. The campaign engine
// uses it to build each distinct platform shape once before fanning
// members out.
func (pc *PlatformCache) Prebuild(ctx context.Context, sc Scenario) error {
	simCfg, spec, err := sc.simConfig(config{})
	if err != nil {
		return err
	}
	p, err := pc.cache.Get(spec)
	if err != nil {
		return err
	}
	return p.Warm(ctx,
		simCfg.Cooling == sim.LiquidVar && simCfg.FlowPolicy == nil,
		simCfg.Policy == sched.TALB)
}

// attachAll gives every lowered config the platform of its spec: the
// distinct specs are resolved concurrently (a heterogeneous batch must
// not pay its grid builds serially), then each config gets its platform.
func (pc *PlatformCache) attachAll(ctx context.Context, cfgs []sim.Config, specs []platform.Spec) error {
	first := map[platform.Spec]int{} // spec → index of its first config
	var distinct []int
	for i, spec := range specs {
		if _, ok := first[spec]; !ok {
			first[spec] = i
			distinct = append(distinct, i)
		}
	}
	resolved := make([]*platform.Platform, len(specs))
	err := par.ForEach(ctx, len(distinct), len(distinct), func(k int) error {
		i := distinct[k]
		p, err := pc.cache.Get(specs[i])
		if err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
		resolved[i] = p
		return nil
	})
	if err != nil {
		return err
	}
	for i := range cfgs {
		cfgs[i].Platform = resolved[first[specs[i]]]
	}
	return nil
}
