package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/rcnet"
	"repro/internal/stepper"
	"repro/internal/units"
)

// gangFleet builds n platform-sharing LiquidMax configs (fixed flow: one
// factor key across the fleet) plus the serial-Run expectation for each.
func gangFleet(t *testing.T, n int) ([]Config, [][]byte) {
	t.Helper()
	base := parallelTestConfig(t, "Web-med", LiquidMax)
	base.Duration = 2
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].Seed = int64(i + 1)
	}
	// One member retires early: the gang must keep lock-step after a
	// mid-flight departure.
	cfgs[n/2].Duration = units.Second(1.5)

	want := make([][]byte, n)
	for i, cfg := range cfgs {
		r, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
	}
	return cfgs, want
}

// TestRunAllGangByteIdentical pins the co-scheduling contract: when runs
// sharing one platform are ganged through batched multi-RHS solves, every
// result is byte-identical (JSON surface) to its solo serial Run, at any
// worker count, while the batch counters prove batching actually happened.
func TestRunAllGangByteIdentical(t *testing.T) {
	const fleet = 5
	cfgs, want := gangFleet(t, fleet)
	var ctr rcnet.BatchCounters
	for i := range cfgs {
		cfgs[i].BatchCounters = &ctr
	}

	for _, workers := range []int{1, 2} { // slots < fleet: gang scheduling
		got, err := RunAll(context.Background(), cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			g, err := json.Marshal(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g, want[i]) {
				t.Errorf("workers=%d config %d: ganged result differs from serial Run\n got: %s\nwant: %s",
					workers, i, g, want[i])
			}
			if got[i].BatchedSolves == 0 {
				t.Errorf("workers=%d config %d: no batched solves in an oversubscribed gang", workers, i)
			}
		}
	}
	snap := ctr.Snapshot()
	if snap.Sweeps == 0 || snap.BatchedSolves == 0 {
		t.Fatalf("batch counters empty after gang runs: %+v", snap)
	}

	// Enough slots: every run solo, nothing batched, same bytes.
	got, err := RunAll(context.Background(), cfgs, fleet)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		g, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, want[i]) {
			t.Errorf("solo config %d: result differs from serial Run", i)
		}
		if got[i].BatchedSolves != 0 {
			t.Errorf("solo config %d: unexpected batched solves %d", i, got[i].BatchedSolves)
		}
	}
}

// TestPlanJobs pins the partition rules: solo below oversubscription,
// key-grouped gangs of balanced width above it, non-gangable configs solo.
func TestPlanJobs(t *testing.T) {
	shared := parallelTestConfig(t, "Web-med", LiquidMax)
	adaptive := shared // data-dependent solve cadence: never ganged
	adaptive.Stepper.Kind = stepper.Adaptive
	cfgs := []Config{shared, adaptive, shared, shared, shared}

	jobs := planJobs(cfgs, 8)
	if len(jobs) != len(cfgs) {
		t.Fatalf("undersubscribed: got %d jobs, want %d solo jobs", len(jobs), len(cfgs))
	}

	jobs = planJobs(cfgs, 2) // width ceil(5/2) = 3
	var widths []int
	for _, j := range jobs {
		widths = append(widths, len(j))
	}
	// Expected: gang {0,2,3} fills at width 3, solo {1}, gang {4}.
	if len(jobs) != 3 || len(jobs[0]) != 3 || len(jobs[1]) != 1 || len(jobs[2]) != 1 {
		t.Fatalf("oversubscribed partition = %v", widths)
	}
	if jobs[1][0] != 1 || jobs[2][0] != 4 {
		t.Fatalf("unexpected job membership: %v", jobs)
	}
}
