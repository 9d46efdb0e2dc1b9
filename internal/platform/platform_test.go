package platform

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/rcnet"
	"repro/internal/units"
)

func quickSpec(layers int, liquid bool) Spec {
	return Spec{Layers: layers, Liquid: liquid, GridNX: 12, GridNY: 10, RC: rcnet.DefaultConfig()}
}

func TestSpecCanonicalEquality(t *testing.T) {
	a, b := quickSpec(2, true), quickSpec(2, true)
	if a.Canonical() != a || a.Canonical() != b.Canonical() {
		t.Errorf("canonical specs differ: %+v vs %+v", a.Canonical(), b.Canonical())
	}
	if a.Canonical() == quickSpec(2, false).Canonical() {
		t.Error("liquid and air specs must not collide")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := quickSpec(3, true).Validate(); err == nil {
		t.Error("want error for 3 layers")
	}
	s := quickSpec(2, true)
	s.GridNX = 0
	if err := s.Validate(); err == nil {
		t.Error("want error for zero grid")
	}
}

func TestAirPlatformHasNoLUT(t *testing.T) {
	p, err := New(quickSpec(2, false))
	if err != nil {
		t.Fatal(err)
	}
	if p.Pump() != nil {
		t.Error("air platform must not carry a pump")
	}
	if _, err := p.LUT(context.Background()); err == nil {
		t.Error("want error for LUT on an air-cooled platform")
	}
	// Weights exist for air stacks (TALB (Air) is a paper configuration).
	if _, err := p.Weights(context.Background()); err != nil {
		t.Errorf("air weights: %v", err)
	}
}

// TestArtifactSingleflight hammers one platform's artifact accessors from
// many goroutines: everyone must observe the same object, and each build
// counter must end at exactly one.
func TestArtifactSingleflight(t *testing.T) {
	p, err := New(quickSpec(2, true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 8
	luts := make([]any, n)
	weights := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := p.LUT(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			w, err := p.Weights(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := p.NewModel(ctx); err != nil {
				t.Error(err)
				return
			}
			luts[i], weights[i] = l, w
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if luts[i] != luts[0] || weights[i] != weights[0] {
			t.Fatalf("goroutine %d got a different artifact instance", i)
		}
	}
	st := p.Stats()
	if st.LUTBuilds != 1 || st.WeightBuilds != 1 || st.SymbolicBuilds != 1 {
		t.Errorf("builds lut=%d weights=%d symbolic=%d, want 1 each",
			st.LUTBuilds, st.WeightBuilds, st.SymbolicBuilds)
	}
}

// TestBuildFailureNotCached: a canceled artifact build must not poison
// the platform — the next caller retries and succeeds.
func TestBuildFailureNotCached(t *testing.T) {
	p, err := New(quickSpec(2, true))
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.LUT(canceled); err == nil {
		t.Fatal("want error from canceled LUT build")
	}
	if _, err := p.LUT(context.Background()); err != nil {
		t.Fatalf("retry after canceled build: %v", err)
	}
	if got := p.Stats().LUTBuilds; got != 1 {
		t.Errorf("successful LUT builds = %d, want 1", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	for _, s := range []Spec{quickSpec(2, true), quickSpec(2, false), quickSpec(4, true)} {
		if _, err := c.Get(s); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Misses != 3 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 eviction, 3 misses, 0 hits", st)
	}
	// 2-liquid was the LRU entry and is gone; 4-liquid survives.
	if _, err := c.Get(quickSpec(4, true)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Hits; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if _, err := c.Get(quickSpec(2, true)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != 4 {
		t.Errorf("misses = %d, want 4 (evicted entry rebuilt)", got)
	}
}

// TestOncePanicReleasesWaiters: a panicking build must not wedge the
// cell — waiters are released and the next caller retries.
func TestOncePanicReleasesWaiters(t *testing.T) {
	var mu sync.Mutex
	var o once[int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate to the builder")
			}
		}()
		o.get(context.Background(), &mu, func() (int, error) { panic("boom") })
	}()
	// The cell must be retryable, not permanently pending.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := o.get(context.Background(), &mu, func() (int, error) { return 42, nil })
		if err != nil || v != 42 {
			t.Errorf("retry after panic: v=%d err=%v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("once cell wedged after a panicking build")
	}
}

// TestSharedFactorPlatformArtifact: run models share the platform's
// numeric factors — the second model on a key, even at another non-zero
// flow, factorizes nothing and Stats counts one build and one hit —
// while the LUT and weight sweeps
// factor privately and leave nothing in the shared cache; an LRU
// eviction releases the shared factors.
func TestSharedFactorPlatformArtifact(t *testing.T) {
	ctx := context.Background()
	c := NewCache(1)
	p, err := c.Get(quickSpec(2, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(ctx, true, true); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.FactorBuilds != 0 || st.FactorHits != 0 {
		t.Fatalf("set-up used the shared factors: builds=%d hits=%d", st.FactorBuilds, st.FactorHits)
	}
	step := func(flow units.LitersPerMinute) (*rcnet.Model, []float64) {
		t.Helper()
		m, err := p.NewModel(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetFlow(flow); err != nil {
			t.Fatal(err)
		}
		if err := m.Step(0.1); err != nil {
			t.Fatal(err)
		}
		return m, m.TempsCopy()
	}
	var temps [][]float64
	for i, flow := range []units.LitersPerMinute{0.5, 0.8, 0.5} {
		m, temp := step(flow)
		if want := max(0, 1-i); m.Factorizations() != want {
			t.Errorf("model %d factorized %d times, want %d", i, m.Factorizations(), want)
		}
		temps = append(temps, temp)
	}
	if !reflect.DeepEqual(temps[0], temps[2]) {
		t.Error("models on one shared factor disagree")
	}
	if st := c.Stats(); st.Builds.FactorBuilds != 1 || st.Builds.FactorHits != 2 {
		t.Errorf("cache stats: factor builds=%d hits=%d, want 1 and 2",
			st.Builds.FactorBuilds, st.Builds.FactorHits)
	}
	if _, err := c.Get(quickSpec(2, false)); err != nil {
		t.Fatal(err)
	}
	if m, _ := step(0.5); m.Factorizations() != 1 {
		t.Errorf("model on the evicted platform factorized %d times, want 1 (factors released)",
			m.Factorizations())
	}
}
