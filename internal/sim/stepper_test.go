package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/stepper"
	"repro/internal/units"
	"repro/internal/workload"
)

// layerTrace records per-tick per-layer max/mean temperatures of a run.
type layerTrace struct {
	times  []units.Second
	maxC   [][]units.Celsius
	meanC  [][]units.Celsius
	report *Result
}

func traceRun(t *testing.T, cfg Config) *layerTrace {
	t.Helper()
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &layerTrace{}
	n := s.NumLayers()
	for s.Time() < cfg.Duration {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		maxC := make([]units.Celsius, n)
		meanC := make([]units.Celsius, n)
		if err := s.LayerTempsInto(maxC, meanC); err != nil {
			t.Fatal(err)
		}
		tr.times = append(tr.times, s.Time())
		tr.maxC = append(tr.maxC, maxC)
		tr.meanC = append(tr.meanC, meanC)
	}
	tr.report = s.Result()
	return tr
}

// TestAdaptiveStepperTolerance is the acceptance property test: across
// the scenario/workload matrix the adaptive engine's emitted per-layer
// temperatures stay within 0.1 °C of the fixed-tick reference at every
// base tick, sample counts and timestamps are identical, and the
// throughput/energy accounting is exact (both engines integrate the same
// per-tick powers and settings).
func TestAdaptiveStepperTolerance(t *testing.T) {
	const tolC = 0.1
	cases := []struct {
		name    string
		layers  int
		cooling CoolingMode
		policy  sched.Policy
		bench   string
		dpm     bool
	}{
		{"2l_var_talb_webmed", 2, LiquidVar, sched.TALB, "Web-med", false},
		{"2l_var_talb_webhigh", 2, LiquidVar, sched.TALB, "Web-high", false},
		{"2l_air_lb_gzip", 2, Air, sched.LB, "gzip", false},
		{"2l_air_talb_webdb", 2, Air, sched.TALB, "Web&DB", false},
		{"4l_max_mig_webhigh", 4, LiquidMax, sched.Migration, "Web-high", false},
		{"4l_var_talb_gzip_dpm", 4, LiquidVar, sched.TALB, "gzip", true},
	}
	totalMacroTicks := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := workload.ByName(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Cooling = c.cooling
			cfg.Policy = c.policy
			cfg.Bench = b
			cfg.DPMEnabled = c.dpm
			cfg.Duration = 8
			cfg.Warmup = 1
			cfg = onStack(t, cfg, c.layers, 12, 10)

			ref := traceRun(t, cfg)
			cfg.Stepper = stepper.Config{Kind: stepper.Adaptive}
			adp := traceRun(t, cfg)

			if len(ref.times) != len(adp.times) {
				t.Fatalf("tick counts differ: fixed %d, adaptive %d", len(ref.times), len(adp.times))
			}
			worst := 0.0
			for i := range ref.times {
				if ref.times[i] != adp.times[i] {
					t.Fatalf("tick %d: timestamps differ (%v vs %v)", i, ref.times[i], adp.times[i])
				}
				for li := range ref.maxC[i] {
					dmax := math.Abs(float64(ref.maxC[i][li] - adp.maxC[i][li]))
					dmean := math.Abs(float64(ref.meanC[i][li] - adp.meanC[i][li]))
					if dmax > worst {
						worst = dmax
					}
					if dmean > worst {
						worst = dmean
					}
					if dmax > tolC || dmean > tolC {
						t.Fatalf("tick %d (t=%v) layer %d: |ΔTmax|=%.4f |ΔTmean|=%.4f exceeds %.2f °C",
							i, ref.times[i], li, dmax, dmean, tolC)
					}
				}
			}
			if ref.report.Samples != adp.report.Samples {
				t.Errorf("sample counts differ: %d vs %d", ref.report.Samples, adp.report.Samples)
			}
			st := adp.report.Stepping
			t.Logf("worst |ΔT| %.4f °C; stepping: %d base ticks, %d macro steps covering %d ticks, %d refinements, %d solves",
				worst, st.BaseTicks, st.MacroSteps, st.MacroTicks, st.Refinements, st.Solves)
			if st.BaseTicks != ref.report.Stepping.BaseTicks {
				t.Errorf("adaptive ran %d base ticks, fixed %d", st.BaseTicks, ref.report.Stepping.BaseTicks)
			}
			totalMacroTicks += st.MacroTicks
		})
	}
	// The engine must actually be adaptive somewhere in the matrix: at
	// least some stretch of some scenario steps long.
	if totalMacroTicks == 0 {
		t.Errorf("adaptive engine never took a macro-step anywhere in the matrix")
	}
}

// TestAdaptiveQuietPhaseMacroSteps drives a thermally quiet regime — the
// workload generator scaled to zero, DPM putting every core to sleep —
// and asserts the engine settles into long macro-steps (the ≥3× speedup
// regime) while staying within tolerance of the fixed reference.
func TestAdaptiveQuietPhaseMacroSteps(t *testing.T) {
	b, err := workload.ByName("Web-med")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Bench = b
	cfg.Cooling = LiquidMax // no controller: flow pinned at max
	cfg.Policy = sched.LB
	cfg.DPMEnabled = true
	cfg.Duration = 30
	cfg.Warmup = 1
	cfg = onStack(t, cfg, 2, 12, 10)
	cfg.UtilSchedule = func(t units.Second) float64 { return 0 }

	ref := traceRun(t, cfg)
	cfg.Stepper = stepper.Config{Kind: stepper.Adaptive}
	adp := traceRun(t, cfg)

	worst := 0.0
	for i := range ref.times {
		for li := range ref.maxC[i] {
			if d := math.Abs(float64(ref.maxC[i][li] - adp.maxC[i][li])); d > worst {
				worst = d
			}
		}
	}
	st := adp.report.Stepping
	t.Logf("quiet phase: worst |ΔT| %.4f °C; %d/%d ticks in macro-steps, %d solves (fixed: %d)",
		worst, st.MacroTicks, st.BaseTicks, st.Solves, ref.report.Stepping.Solves)
	if worst > 0.1 {
		t.Errorf("quiet-phase error %.4f °C exceeds 0.1 °C", worst)
	}
	if st.MacroTicks < st.BaseTicks/2 {
		t.Errorf("only %d of %d ticks were covered by macro-steps; the quiet phase should step long",
			st.MacroTicks, st.BaseTicks)
	}
	if st.Solves*2 >= ref.report.Stepping.Solves {
		t.Errorf("adaptive used %d solves vs fixed %d; want < half", st.Solves, ref.report.Stepping.Solves)
	}
}

// TestFixedStepperControlPeriod: a ControlEvery > 1 fixed run still works
// and decides less often (the control-period phase split), with the
// transition bookkeeping intact.
func TestFixedStepperControlPeriod(t *testing.T) {
	b, err := workload.ByName("Web-high")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Bench = b
	cfg.Duration = 6
	cfg.Warmup = 1
	cfg = onStack(t, cfg, 2, 12, 10)
	cfg.Stepper = stepper.Config{ControlEvery: 5}
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 60 {
		t.Errorf("samples = %d, want 60", r.Samples)
	}
}
