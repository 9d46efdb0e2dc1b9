package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/controller"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchOptions is the reduced-fidelity configuration used by the figure
// benchmarks so a full -bench=. sweep completes in minutes. cmd/repro
// regenerates the same artifacts at full fidelity.
func benchOptions() experiments.Options {
	return experiments.Options{
		GridNX: 12, GridNY: 10, Duration: 10, Warmup: 3, Seed: 1,
		Workloads: []string{"Web-high", "gzip"},
	}
}

// --- Tables ---------------------------------------------------------------

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTableI(io.Discard)
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTableII(io.Discard)
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTableIII(io.Discard)
	}
}

// --- Figures ---------------------------------------------------------------

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteFig3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 2 {
			b.Fatal("missing stacks")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	o := benchOptions()
	var coolSave float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		var lbMax, talbVar *experiments.ComboResult
		for k := range res {
			switch res[k].Combo.Label {
			case "LB (Max)":
				lbMax = &res[k]
			case "TALB (Var)*":
				talbVar = &res[k]
			}
		}
		coolSave = 100 * (1 - talbVar.PumpEnergy/lbMax.PumpEnergy)
	}
	b.ReportMetric(coolSave, "%cooling-saved")
}

func BenchmarkFig7(b *testing.B) {
	o := benchOptions()
	var airGrad, varGrad float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		airGrad = res[0].AvgGradPct
		varGrad = res[len(res)-1].AvgGradPct
	}
	b.ReportMetric(airGrad, "%grad-air")
	b.ReportMetric(varGrad, "%grad-var")
}

func BenchmarkFig8(b *testing.B) {
	o := benchOptions()
	var perf float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		perf = res[len(res)-1].NormPerf
	}
	b.ReportMetric(perf, "perf-var-vs-lbair")
}

// --- Experiment engine ------------------------------------------------------

// BenchmarkExperimentsParallel measures the worker-pool experiment engine
// on the Fig. 8 matrix (5 combos × 2 workloads = 10 scenario runs per
// iteration). workers=1 is the serial baseline; the wall-clock speedup at
// workers=N is bounded by min(N, NumCPU) because scenario runs are
// CPU-bound. Output is byte-identical across worker counts (see
// experiments.TestParallelMatrixDeterminism), so the sub-benchmarks are
// directly comparable.
func BenchmarkExperimentsParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if workers > 1 && runtime.NumCPU() == 1 {
				b.Logf("single-CPU host: workers=%d cannot speed up, timing is parity-only", workers)
			}
			o := benchOptions()
			o.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig8(context.Background(), o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------

// ablationRun executes one Web&DB LiquidVar run with a custom controller
// configuration and returns the pump energy and time above target. The
// default-resolution grid and mid-utilization workload keep the
// controller moving across settings, so the ablation arms actually
// diverge.
func ablationRun(b *testing.B, ctrlCfg *controller.Config) (pumpJ, above80 float64) {
	b.Helper()
	bench, err := workload.ByName("Web&DB")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Bench = bench
	cfg.Cooling = sim.LiquidVar
	cfg.Policy = sched.TALB
	cfg.Duration = 30
	cfg.Warmup = 3
	cfg.ControllerCfg = ctrlCfg
	r, err := sim.Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return float64(r.PumpEnergy), r.Above80Pct
}

func BenchmarkAblationHysteresis(b *testing.B) {
	var withJ, withoutJ float64
	for i := 0; i < b.N; i++ {
		on := controller.DefaultConfig()
		withJ, _ = ablationRun(b, &on)
		off := controller.DefaultConfig()
		off.HysteresisOff = true
		withoutJ, _ = ablationRun(b, &off)
	}
	b.ReportMetric(withJ, "pumpJ-hyst")
	b.ReportMetric(withoutJ, "pumpJ-nohyst")
}

func BenchmarkAblationProactive(b *testing.B) {
	var proJ, reacJ float64
	for i := 0; i < b.N; i++ {
		pro := controller.DefaultConfig()
		proJ, _ = ablationRun(b, &pro)
		reac := controller.DefaultConfig()
		reac.Proactive = false
		reacJ, _ = ablationRun(b, &reac)
	}
	b.ReportMetric(proJ, "pumpJ-proactive")
	b.ReportMetric(reacJ, "pumpJ-reactive")
}

func BenchmarkAblationBaselineIncDec(b *testing.B) {
	// The paper's controller vs the prior-work reactive inc/dec policy
	// [6]: pump energy and time above target on a varying workload.
	bench, err := workload.ByName("Web&DB")
	if err != nil {
		b.Fatal(err)
	}
	run := func(useBaseline bool) (float64, float64) {
		cfg := sim.DefaultConfig()
		cfg.Bench = bench
		cfg.Cooling = sim.LiquidVar
		cfg.Policy = sched.TALB
		cfg.Duration = 30
		cfg.Warmup = 3
		if useBaseline {
			fp, err := controller.NewIncDec(controller.TargetTemp, 2)
			if err != nil {
				b.Fatal(err)
			}
			cfg.FlowPolicy = fp
		}
		r, err := sim.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		return float64(r.PumpEnergy), r.Above80Pct
	}
	var paperJ, baseJ float64
	for i := 0; i < b.N; i++ {
		paperJ, _ = run(false)
		baseJ, _ = run(true)
	}
	b.ReportMetric(paperJ, "pumpJ-paper")
	b.ReportMetric(baseJ, "pumpJ-incdec")
}

func BenchmarkAblationWeighting(b *testing.B) {
	// TALB vs plain LB under air cooling: gradient frequency.
	bench, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	run := func(p sched.Policy) float64 {
		cfg := sim.DefaultConfig()
		cfg.Bench = bench
		cfg.Cooling = sim.Air
		cfg.Policy = p
		cfg.Duration = 12
		cfg.Warmup = 3
		cfg.GridNX, cfg.GridNY = 12, 10
		cfg.DPMEnabled = true
		r, err := sim.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		return r.GradientPct
	}
	var lb, talb float64
	for i := 0; i < b.N; i++ {
		lb = run(sched.LB)
		talb = run(sched.TALB)
	}
	b.ReportMetric(lb, "%grad-lb")
	b.ReportMetric(talb, "%grad-talb")
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkSubstrate runs the internal/benchutil registry, the one list
// of substrate hot-path benchmarks, as Substrate/<Name>: the same bodies
// cmd/benchjson snapshots to BENCH_<date>.json. -bench
// 'Substrate/^<Name>$' selects one entry.
func BenchmarkSubstrate(b *testing.B) {
	for _, e := range benchutil.Benches {
		b.Run(e.Name, e.Run)
	}
}
