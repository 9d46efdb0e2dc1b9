package coolsim

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// TestSharedFactorsByteIdentical is the determinism contract of the
// platform-shared numeric factors: RunMany over the sweep's mix (Max and
// Var cooling × LB, Mig and TALB, fixed and adaptive stepping) on one
// shared PlatformCache — every run solving through factors whichever
// run got there first built — gives reports byte-identical to cold runs
// on private platforms, at every worker count. Only the
// placement-dependent gang diagnostic is excluded.
func TestSharedFactorsByteIdentical(t *testing.T) {
	ctx := context.Background()
	var scs []Scenario
	seed := int64(1)
	for _, cooling := range []string{CoolingMax, CoolingVar} {
		for _, policy := range []string{PolicyLB, PolicyMigration, PolicyTALB} {
			for _, mode := range []string{"", "adaptive"} {
				sc := warmScenario("Web-high", seed)
				sc.Duration = 10
				sc.Cooling, sc.Policy = cooling, policy
				sc.Stepping = Stepping{Mode: mode}
				scs = append(scs, sc)
				seed++
			}
		}
	}
	encode := func(r *Report) []byte {
		t.Helper()
		c := *r
		c.BatchedSolves = 0
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cold := make([][]byte, len(scs))
	for i, sc := range scs {
		r, err := Run(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = encode(r)
	}

	pc := NewPlatformCache(0)
	builds := -1
	for _, workers := range []int{1, 2, 8} {
		reports, err := RunMany(ctx, scs, WithPlatformCache(pc), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reports {
			if got := encode(r); !bytes.Equal(got, cold[i]) {
				t.Errorf("workers=%d scenario %d (%s/%s/%q): shared-factor report differs from cold\ncold   %s\nshared %s",
					workers, i, scs[i].Cooling, scs[i].Policy, scs[i].Stepping.Mode, cold[i], got)
			}
		}
		// The batch repeats the same scenarios: the first pass built
		// every key, the later ones only hit.
		st := pc.Stats()
		t.Logf("workers=%d: factor_builds=%d factor_hits=%d", workers, st.FactorBuilds, st.FactorHits)
		if builds >= 0 && st.FactorBuilds != builds {
			t.Errorf("workers=%d: a repeated batch factorized again (%d -> %d builds)",
				workers, builds, st.FactorBuilds)
		}
		builds = st.FactorBuilds
	}
	st := pc.Stats()
	if st.FactorBuilds == 0 || st.FactorHits == 0 {
		t.Errorf("factor_builds=%d factor_hits=%d: the runs did not share factors",
			st.FactorBuilds, st.FactorHits)
	}
}

// TestRunManySupernodalGOMAXPROCS is the end-to-end determinism check of
// the subtree-parallel supernodal kernels: RunMany on the 4-layer 23×20
// stack (n = 4140, the panel kernels, whose factorizations and solves
// fork onto goroutines) gives byte-identical reports at GOMAXPROCS 1 and
// 8, solo (2 workers) and ganged (1 worker on a shared platform, where
// the pair's per-tick solves go through one SolveBatch call and so fork
// inside the gang). Only the placement-dependent gang diagnostic is
// excluded; the ganged run must have batched.
func TestRunManySupernodalGOMAXPROCS(t *testing.T) {
	ctx := context.Background()
	var scs []Scenario
	for i, cooling := range []string{CoolingMax, CoolingVar} {
		sc := warmScenario("Web-high", int64(i+1))
		sc.Layers = 4
		sc.GridNX, sc.GridNY = 23, 20
		sc.Duration = 2
		sc.Warmup = 0.5
		sc.Cooling = cooling
		scs = append(scs, sc)
	}
	var want [][]byte
	for _, p := range []int{1, 8} {
		for _, workers := range []int{2, 1} {
			var reports []*Report
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				var err error
				opts := []Option{WithWorkers(workers)}
				if workers == 1 {
					opts = append(opts, WithPlatformCache(NewPlatformCache(0)))
				}
				if reports, err = RunMany(ctx, scs, opts...); err != nil {
					t.Fatal(err)
				}
			}()
			var batched int64
			for i, r := range reports {
				batched += r.BatchedSolves
				c := *r
				c.BatchedSolves = 0
				got, err := json.Marshal(&c)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) < len(scs) {
					want = append(want, got)
					continue
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("scenario %d (%s): GOMAXPROCS=%d workers=%d report differs from GOMAXPROCS=1 workers=2\n1/2: %s\n%d/%d: %s",
						i, scs[i].Cooling, p, workers, want[i], p, workers, got)
				}
			}
			if workers == 1 && batched == 0 {
				t.Errorf("GOMAXPROCS=%d workers=1: no batched solves, the pair did not gang", p)
			}
		}
	}
}
