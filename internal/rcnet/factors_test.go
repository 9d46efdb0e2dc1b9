package rcnet

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/units"
)

// sharedFleet builds n models on one network and symbolic analysis
// drawing their numeric factors from one shared cache, as a platform's
// run models do,
// each with the T1 power map and flow 0.5 l/min.
func sharedFleet(t *testing.T, n int, cfg Config) ([]*Model, *Factors) {
	t.Helper()
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	symb, err := net.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFactors()
	models := make([]*Model, n)
	for i := range models {
		if models[i], err = net.NewModel(symb, fc); err != nil {
			t.Fatal(err)
		}
		t1Power(t, models[i])
		if err := models[i].SetFlow(0.5); err != nil {
			t.Fatal(err)
		}
	}
	return models, fc
}

// TestSharedFactorConcurrentSingleBuild: models on one shared factor
// cache that request the same key at the same moment factorize it
// exactly once between them, and every model — the builder and the ones
// solving through views — computes identical temperatures.
func TestSharedFactorConcurrentSingleBuild(t *testing.T) {
	const n = 8
	models, fc := sharedFleet(t, n, DefaultConfig())
	start := make(chan struct{})
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range 5 {
				if err := m.Step(0.1); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	total := 0
	for i, m := range models {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		total += m.Factorizations()
	}
	if total != 1 {
		t.Errorf("models performed %d factorizations, want exactly 1", total)
	}
	if builds, hits := fc.Counts(); builds != 1 || hits != n-1 {
		t.Errorf("shared cache builds=%d hits=%d, want 1 and %d", builds, hits, n-1)
	}
	want := models[0].Temps()
	for i, m := range models[1:] {
		for j, v := range m.Temps() {
			if v != want[j] {
				t.Fatalf("model %d node %d: %v, model 0 %v", i+1, j, v, want[j])
			}
		}
	}
}

// TestSharedFactorEvictionKeepsHolders pins the aliasing hazard of
// recycling evicted factor buffers: one model churns through more keys
// than the shared cache holds, evicting the key another model still
// solves through, and the holder's trajectory stays bit-identical to a
// private model's.
func TestSharedFactorEvictionKeepsHolders(t *testing.T) {
	models, fc := sharedFleet(t, 2, DefaultConfig())
	churn, holder := models[0], models[1]
	ref, err := New(holder.Grid, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t1Power(t, ref)
	if err := ref.SetFlow(0.5); err != nil {
		t.Fatal(err)
	}
	step := func() {
		t.Helper()
		if err := holder.Step(0.1); err != nil {
			t.Fatal(err)
		}
		if err := ref.Step(0.1); err != nil {
			t.Fatal(err)
		}
		for j, v := range holder.Temps() {
			if v != ref.Temps()[j] {
				t.Fatalf("holder node %d: %v, private model %v", j, v, ref.Temps()[j])
			}
		}
	}
	// The churning model factorizes key (0.5, 0.1); the holder acquires
	// its view of that factor.
	if err := churn.Step(0.1); err != nil {
		t.Fatal(err)
	}
	step()
	// New keys by dt: every non-zero flow yields the same matrix, so
	// only a dt change makes a recycled buffer's new values differ.
	for i := 0; i < 2*maxCachedFactors+3; i++ {
		if err := churn.Step(units.Second(0.05 + 0.01*float64(i))); err != nil {
			t.Fatal(err)
		}
		step()
	}
	if got := len(fc.entries); got > maxCachedFactors {
		t.Fatalf("shared cache grew to %d entries, cap %d", got, maxCachedFactors)
	}
	if got := churn.CachedFactors(); got > maxCachedFactors {
		t.Fatalf("model memo grew to %d entries, cap %d", got, maxCachedFactors)
	}
	if got := holder.Factorizations(); got != 0 {
		t.Errorf("holder factorized %d times, want 0 (it solves through the churning model's factor)", got)
	}
}

// TestSharedFactorPanicReleasesWaiters: a factorization that panics
// leaves its key failed rather than pending, so later requests return
// an error instead of blocking forever.
func TestSharedFactorPanicReleasesWaiters(t *testing.T) {
	fc := NewFactors()
	key := factorKey{true, 0.1}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build panic was swallowed")
			}
		}()
		fc.get(key, func() (*mat.LDLNumeric, error) { panic("boom") })
	}()
	_, err := fc.get(key, func() (*mat.LDLNumeric, error) {
		t.Fatal("a failed key was factorized again")
		return nil, nil
	})
	if !errors.Is(err, errFactorPanicked) {
		t.Fatalf("request after a panicked build: %v, want errFactorPanicked", err)
	}
}

// TestSharedFactorFailure: a key whose factorization failed is cached as
// broken for every model on the shared cache. Under SolverAuto each of
// them takes the CG fallback (and matches a CG model); under SolverDirect
// each of them gets the error, not only the one that factorized.
func TestSharedFactorFailure(t *testing.T) {
	inject := func(fc *Factors, m *Model) {
		t.Helper()
		_, err := fc.get(m.factorKey(0.1), func() (*mat.LDLNumeric, error) {
			return nil, mat.ErrNotPositiveDefinite
		})
		if !errors.Is(err, mat.ErrNotPositiveDefinite) {
			t.Fatalf("injected failure returned %v", err)
		}
	}

	t.Run("auto", func(t *testing.T) {
		models, fc := sharedFleet(t, 3, DefaultConfig())
		inject(fc, models[0])
		cgCfg := DefaultConfig()
		cgCfg.Solver = SolverCG
		ref, err := New(models[0].Grid, cgCfg)
		if err != nil {
			t.Fatal(err)
		}
		t1Power(t, ref)
		if err := ref.SetFlow(0.5); err != nil {
			t.Fatal(err)
		}
		for range 3 {
			if err := ref.Step(0.1); err != nil {
				t.Fatal(err)
			}
			for i, m := range models {
				if err := m.Step(0.1); err != nil {
					t.Fatalf("model %d: %v", i, err)
				}
				if d := maxAbsDiff(m.Temps(), ref.Temps()); d != 0 {
					t.Fatalf("model %d did not take the CG fallback: |T − T_CG| = %g K", i, d)
				}
			}
		}
		for i, m := range models {
			if got := m.Factorizations(); got != 0 {
				t.Errorf("model %d factorized %d times on a broken key", i, got)
			}
		}
		if builds, _ := fc.Counts(); builds != 1 {
			t.Errorf("broken key factorized %d times, want 1", builds)
		}
	})

	t.Run("direct", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Solver = SolverDirect
		models, fc := sharedFleet(t, 3, cfg)
		inject(fc, models[0])
		for i, m := range models {
			for range 2 {
				if err := m.Step(0.1); !errors.Is(err, mat.ErrNotPositiveDefinite) {
					t.Fatalf("model %d: Step error %v, want ErrNotPositiveDefinite", i, err)
				}
			}
		}
	})

	// A genuinely indefinite system: a negative sink-to-ambient
	// resistance outweighs the sink node's C/dt. The first model to ask
	// factorizes and fails; the second gets the cached failure.
	t.Run("not positive definite", func(t *testing.T) {
		g, err := grid.Build(floorplan.NewT1Stack2(false), grid.DefaultParams(12, 10))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Solver = SolverDirect
		cfg.SinkConvectionR = -1e-4
		net, err := NewNetwork(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		symb, err := net.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		fc := NewFactors()
		for i := range 2 {
			m, err := net.NewModel(symb, fc)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Step(0.1); !errors.Is(err, mat.ErrNotPositiveDefinite) {
				t.Fatalf("model %d: Step error %v, want ErrNotPositiveDefinite", i, err)
			}
		}
		if builds, hits := fc.Counts(); builds != 1 || hits != 1 {
			t.Errorf("builds=%d hits=%d, want 1 and 1", builds, hits)
		}
	})
}
