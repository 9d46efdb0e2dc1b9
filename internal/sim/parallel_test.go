package sim

import (
	"context"

	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

func parallelTestConfig(t *testing.T, bench string, cooling CoolingMode) Config {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Bench = b
	cfg.Cooling = cooling
	cfg.Policy = sched.LB
	cfg.Duration = 3
	cfg.Warmup = 1
	return onStack(t, cfg, 2, 10, 8)
}

func TestRunAllMatchesSerialRuns(t *testing.T) {
	cfgs := []Config{
		parallelTestConfig(t, "gzip", Air),
		parallelTestConfig(t, "Web-med", LiquidMax),
		parallelTestConfig(t, "Web-high", Air),
	}
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got, err := RunAll(context.Background(), cfgs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		// Spot-check bit-identical metrics; full-report equality is
		// covered by the experiments CSV determinism test.
		if got[i].MaxTemp != want[i].MaxTemp ||
			got[i].ChipEnergy != want[i].ChipEnergy ||
			got[i].Throughput != want[i].Throughput ||
			got[i].Migrations != want[i].Migrations {
			t.Errorf("config %d: parallel result %+v differs from serial %+v", i, got[i], want[i])
		}
	}
}

func TestRunAllPropagatesLowestIndexError(t *testing.T) {
	bad := parallelTestConfig(t, "gzip", Air)
	bad.Platform = nil
	cfgs := []Config{
		parallelTestConfig(t, "gzip", Air),
		bad,
		parallelTestConfig(t, "Web-med", Air),
	}
	results, err := RunAll(context.Background(), cfgs, 2)
	if err == nil {
		t.Fatal("expected error for a config without a platform")
	}
	if results[0] == nil || results[2] == nil {
		t.Error("successful configs should still have results")
	}
	if results[1] != nil {
		t.Error("failed config should have nil result")
	}
}

func TestRunAllEmpty(t *testing.T) {
	results, err := RunAll(context.Background(), nil, 4)
	if err != nil || len(results) != 0 {
		t.Fatalf("RunAll(nil) = %v, %v", results, err)
	}
}

func TestRunAllWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = parallelTestConfig(t, "Web-med", LiquidMax)
		cfgs[i].Seed = int64(i + 1)
		cfgs[i].Duration = units.Second(2)
	}
	base, err := RunAll(context.Background(), cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := RunAll(context.Background(), cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if fmt.Sprintf("%+v", got[i].Report) != fmt.Sprintf("%+v", base[i].Report) {
				t.Errorf("workers=%d config %d: report differs from workers=1", workers, i)
			}
		}
	}
}
