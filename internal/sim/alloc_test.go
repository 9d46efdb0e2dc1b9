package sim

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestStepAllocationFree guards the tick-path garbage budget: after the
// warm-up ticks (first factorization, predictor lag fill, queue capacity
// growth), a full simulator tick — workload arrivals, scheduling, DPM,
// power with leakage, flow control, thermal solve, stats collection —
// performs zero allocations. Every reusable buffer this depends on
// (sched.BusyFractionsInto, dpm.StatesInto, power.BlockPowersInto, the
// precomputed WeightTable rows, the generator's arrival buffer, the
// scheduler's thread free list and compacting queue pops) is covered by
// this one assertion.
func TestStepAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cooling CoolingMode
		dpm     bool
	}{
		{"var-talb", LiquidVar, false},
		{"max-talb-dpm", LiquidMax, true},
		{"air-talb-dpm", Air, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bench, err := workload.ByName("Web-med")
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Bench = bench
			cfg.Cooling = tc.cooling
			cfg.DPMEnabled = tc.dpm
			cfg.Duration = 1e9 // stepped manually
			cfg.Warmup = 0
			s, err := New(context.Background(), onStack(t, cfg, 2, 12, 10))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(300, func() {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Step allocates %.1f objects per tick, want 0", allocs)
			}
		})
	}
}
