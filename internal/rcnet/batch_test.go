package rcnet

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/units"
)

// buildFleet builds n models on one network of a liquid-cooled stack
// sharing a single symbolic analysis — the platform wiring — with
// per-model power maps.
func buildFleet(t *testing.T, n int) []*Model {
	t.Helper()
	stack := floorplan.NewT1Stack2(true)
	g, err := grid.Build(stack, grid.DefaultParams(12, 10))
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
	var models []*Model
	for range n {
		m, err := net.NewModel(symb, nil)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for i, m := range models {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		for li, layer := range m.Grid.Stack.Layers {
			p := make([]float64, len(layer.Blocks))
			for bi := range p {
				p[bi] = 5 * rng.Float64()
			}
			if err := m.SetLayerPower(li, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SetFlow(0.5); err != nil {
			t.Fatal(err)
		}
	}
	return models
}

// TestBatchStepperMatchesStep pins the gang contract at the model level:
// advancing a fleet through BatchStepper.Step is bit-identical to
// advancing each model with its own serial Step, including ticks where
// the fleet runs at different non-zero flows (one factor key, one group)
// and ticks where it splits across factor keys (some pumps off).
func TestBatchStepperMatchesStep(t *testing.T) {
	const fleet = 5
	batch := buildFleet(t, fleet)
	serial := buildFleet(t, fleet)
	var ctr BatchCounters
	st := NewBatchStepper(&ctr)
	setFlows := func(models []*Model, step int) {
		for i, m := range models {
			flow := units.LitersPerMinute(0.5)
			if step >= 10 && step < 15 && i%2 == 1 {
				flow = 0.8 // same matrix: the gang stays one group
			}
			if step >= 15 && step < 18 && i%2 == 1 {
				flow = 0 // pump off: split the gang into two key groups
			}
			if err := m.SetFlow(flow); err != nil {
				t.Fatal(err)
			}
		}
	}
	for step := 0; step < 20; step++ {
		setFlows(batch, step)
		setFlows(serial, step)
		if err := st.Step(batch, 0.1); err != nil {
			t.Fatal(err)
		}
		for _, m := range serial {
			if err := m.Step(0.1); err != nil {
				t.Fatal(err)
			}
		}
		for i := range batch {
			bt, se := batch[i].Temps(), serial[i].Temps()
			for j := range bt {
				if bt[j] != se[j] {
					t.Fatalf("step %d model %d node %d: batch %v vs serial %v",
						step, i, j, bt[j], se[j])
				}
			}
		}
		w := st.Widths()
		want := fleet
		if step >= 15 && step < 18 {
			want = 3 // models 0,2,4 on 0.5; 1,3 at zero flow
		}
		if w[0] != want {
			t.Fatalf("step %d: widths[0] = %d, want %d", step, w[0], want)
		}
	}
	snap := ctr.Snapshot()
	if snap.Sweeps == 0 || snap.BatchedSolves == 0 {
		t.Fatalf("no batched sweeps recorded: %+v", snap)
	}
	if snap.Widths[widthBucket(fleet)] == 0 {
		t.Fatalf("width histogram missing the %d bucket: %+v", fleet, snap)
	}
}

// TestBatchStepperConcurrent runs several gangs — all cloned from one
// shared symbolic analysis, all reporting into one counter set —
// concurrently. Under -race this pins the claim that batch stepping
// shares only immutable analysis products and atomic counters.
func TestBatchStepperConcurrent(t *testing.T) {
	var ctr BatchCounters
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for gang := 0; gang < 3; gang++ {
		models := buildFleet(t, 3)
		wg.Add(1)
		go func(gang int, models []*Model) {
			defer wg.Done()
			st := NewBatchStepper(&ctr)
			for step := 0; step < 10; step++ {
				if err := st.Step(models, 0.1); err != nil {
					errs[gang] = err
					return
				}
			}
		}(gang, models)
	}
	wg.Wait()
	for gang, err := range errs {
		if err != nil {
			t.Fatalf("gang %d: %v", gang, err)
		}
	}
	if got := ctr.Snapshot().Sweeps; got != 30 {
		t.Fatalf("sweeps = %d, want 30", got)
	}
}

// TestBatchStepperAllocFree: steady-state gang ticks allocate nothing.
func TestBatchStepperAllocFree(t *testing.T) {
	models := buildFleet(t, 4)
	st := NewBatchStepper(nil)
	if err := st.Step(models, 0.1); err != nil { // warm the factor cache
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := st.Step(models, 0.1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("BatchStepper.Step allocates %v objects, want 0", allocs)
	}
}

func TestWidthBuckets(t *testing.T) {
	cases := map[int]string{2: "2", 3: "3", 4: "4", 5: "5-8", 8: "5-8",
		9: "9-16", 16: "9-16", 17: "17-32", 32: "17-32", 33: "33+", 100: "33+"}
	for w, label := range cases {
		if got := WidthBucketLabel(widthBucket(w)); got != label {
			t.Errorf("width %d: bucket label %q, want %q", w, got, label)
		}
	}
}
