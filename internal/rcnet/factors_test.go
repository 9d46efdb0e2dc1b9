package rcnet

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/units"
)

// sharedFleet builds n models on one network and symbolic analysis
// drawing their numeric factors from one shared cache, as a platform's
// run models do,
// each with the T1 power map and flow 0.5 l/min.
func sharedFleet(t *testing.T, n int) ([]*Model, *Factors) {
	t.Helper()
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, DefaultConfig())
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
	models, fc := sharedFleet(t, n)
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
	models, fc := sharedFleet(t, 2)
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
// broken for every model on the shared cache: each of them gets the
// error, not only the one that factorized, and the key is never
// factorized again.
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

	t.Run("direct", func(t *testing.T) {
		models, fc := sharedFleet(t, 3)
		inject(fc, models[0])
		for i, m := range models {
			for range 2 {
				if err := m.Step(0.1); !errors.Is(err, mat.ErrNotPositiveDefinite) {
					t.Fatalf("model %d: Step error %v, want ErrNotPositiveDefinite", i, err)
				}
			}
			if got := m.Factorizations(); got != 0 {
				t.Errorf("model %d factorized %d times on a broken key", i, got)
			}
		}
		if builds, _ := fc.Counts(); builds != 1 {
			t.Errorf("broken key factorized %d times, want 1", builds)
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

// TestSharedFactorHoldsNoModelScratch: a cached factor does not keep the
// model that built it alive. The cache holds a view of the factor through
// a fresh clone of the builder's symbolic analysis, so once the builder
// is dropped its analysis clone — with the O(n) solve and factorization
// scratch — is collected, while the factor keeps serving the other
// models.
func TestSharedFactorHoldsNoModelScratch(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack4(true), grid.DefaultParams(23, 20))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	symb, err := net.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFactors()
	newModel := func() *Model {
		m, err := net.NewModel(symb, fc)
		if err != nil {
			t.Fatal(err)
		}
		t1Power(t, m)
		if err := m.SetFlow(0.5); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
		return m
	}
	collected := make(chan struct{})
	func() {
		builder := newModel()
		if builder.Factorizations() != 1 {
			t.Fatalf("builder factorized %d times, want 1", builder.Factorizations())
		}
		runtime.AddCleanup(builder.symb, func(ch chan struct{}) { close(ch) }, collected)
	}()
	user := newModel()
	if user.Factorizations() != 0 {
		t.Fatalf("second model factorized %d times, want a cache hit", user.Factorizations())
	}
	deadline := time.Now().Add(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the builder's symbolic analysis is still reachable through the factor cache")
			}
		}
	}
	if builds, _ := fc.Counts(); builds != 1 {
		t.Fatalf("factor cache built %d factors, want 1", builds)
	}
	if err := newModel().Step(0.1); err != nil {
		t.Fatal(err)
	}
	if builds, _ := fc.Counts(); builds != 1 {
		t.Errorf("a model after the builder was collected refactorized (%d builds)", builds)
	}
}
