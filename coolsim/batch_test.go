package coolsim

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// TestRunManyBatchedSolves pins the co-scheduling surface: scenarios
// sharing a platform, squeezed onto fewer worker slots, report batched
// solves while staying byte-identical to their solo runs. They share
// one with or without WithPlatformCache: a call without it gets a cache
// of its own.
func TestRunManyBatchedSolves(t *testing.T) {
	ctx := context.Background()
	scs := make([]Scenario, 4)
	for i := range scs {
		scs[i] = warmScenario("Web-med", int64(i+1))
		scs[i].Cooling = CoolingMax // fixed flow: one shared factor key
	}

	want := make([]*Report, len(scs))
	for i, sc := range scs {
		r, err := Run(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	for name, opts := range map[string][]Option{
		"cached":        {WithPlatformCache(NewPlatformCache(0))},
		"without cache": nil,
	} {
		var ctr BatchCounters
		got, err := RunMany(ctx, scs, append(opts, WithWorkers(1), WithBatchCounters(&ctr))...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].BatchedSolves == 0 {
				t.Errorf("%s: scenario %d: no batched solves in an oversubscribed batch", name, i)
			}
			// Everything but the batching diagnostics must match the solo run.
			g, w := *got[i], *want[i]
			g.BatchedSolves, w.BatchedSolves = 0, 0
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s: scenario %d: ganged report differs from solo Run\n got: %+v\nwant: %+v", name, i, g, w)
			}
		}
		stats := ctr.Stats()
		if stats.Sweeps == 0 || stats.BatchedSolves == 0 {
			t.Fatalf("%s: batch counters empty: %+v", name, stats)
		}
		if len(stats.BatchWidth) == 0 {
			t.Fatalf("%s: batch width histogram empty: %+v", name, stats)
		}
		if _, err := json.Marshal(stats); err != nil {
			t.Fatalf("BatchStats must be JSON-ready: %v", err)
		}
	}
}

// TestControlEveryValidation: negative control periods fail with the
// typed sentinel, from both the scenario field and the option.
func TestControlEveryValidation(t *testing.T) {
	sc := warmScenario("gzip", 1)
	sc.ControlEvery = -2
	if err := sc.Validate(); !errors.Is(err, ErrBadControlEvery) {
		t.Fatalf("Validate with ControlEvery=-2: %v, want ErrBadControlEvery", err)
	}
	sc.ControlEvery = 0
	if _, err := Run(context.Background(), sc, WithControlEvery(-1)); !errors.Is(err, ErrBadControlEvery) {
		t.Fatalf("WithControlEvery(-1): %v, want ErrBadControlEvery", err)
	}
}

// TestControlEveryRuns: a relaxed control period executes and still
// controls the pump (the controller decides every n-th tick but observes
// every tick).
func TestControlEveryRuns(t *testing.T) {
	sc := warmScenario("Web-med", 1)
	sc.ControlEvery = 5
	r, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples == 0 || r.MeanSetting <= 0 {
		t.Fatalf("control-period run produced no controlled samples: %+v", r)
	}
	// The option overrides the scenario field.
	r2, err := Run(context.Background(), sc, WithControlEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	base := warmScenario("Web-med", 1)
	ref, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	r2.Scenario, ref.Scenario = Scenario{}, Scenario{}
	if !reflect.DeepEqual(r2, ref) {
		t.Fatalf("WithControlEvery(1) should match the default cadence\n got: %+v\nwant: %+v", r2, ref)
	}
}
