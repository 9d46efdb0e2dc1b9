package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/arma"
	"repro/internal/benchutil"
	"repro/internal/controller"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stepper"
	"repro/internal/units"
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

// The substrate benchmark bodies live in internal/benchutil, shared with
// cmd/benchjson so `go test -bench` and the BENCH_<date>.json snapshots
// always measure the identical regime (same model setup, same warm-up
// tick, same varying-power step loop).

func BenchmarkThermalStepCoarse(b *testing.B) {
	benchutil.ThermalStep(23, 20)(b)
}

func BenchmarkThermalStepPaperResolution(b *testing.B) {
	// The paper's 100 µm grid: 115×100 cells per slab, 5 slabs.
	benchutil.ThermalStep(115, 100)(b)
}

func BenchmarkSteadyState(b *testing.B) {
	benchutil.SteadyState(b)
}

func BenchmarkLUTBuild(b *testing.B) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		b.Fatal(err)
	}
	pm, err := pump.New(3)
	if err != nil {
		b.Fatal(err)
	}
	full := sim.FullLoadPowers(g.Stack)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := rcnet.New(g, rcnet.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := controller.BuildLUT(context.Background(), m, pm, full, controller.TargetTemp, controller.DefaultLadder()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkARMAFit(b *testing.B) {
	series := make([]float64, 300)
	for i := range series {
		series[i] = 75 + 3*float64(i%60)/60
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arma.Fit(series, arma.DefaultP, arma.DefaultQ); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerDecide(b *testing.B) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		b.Fatal(err)
	}
	m, err := rcnet.New(g, rcnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pm, err := pump.New(3)
	if err != nil {
		b.Fatal(err)
	}
	lut, err := controller.BuildLUT(context.Background(), m, pm, sim.FullLoadPowers(g.Stack),
		controller.TargetTemp, controller.DefaultLadder())
	if err != nil {
		b.Fatal(err)
	}
	c, err := controller.New(lut, controller.DefaultConfig(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(units.Celsius(76 + 2*float64(i%10)/10))
		c.Decide()
	}
}

func BenchmarkSimTick(b *testing.B) {
	benchutil.SimTick(b)
}

// BenchmarkAdaptiveQuietPhase compares SimTick-equivalent throughput of
// the fixed and adaptive stepping engines on a thermally quiet phase
// (idle generator, DPM asleep, flow pinned): the adaptive engine covers
// the phase with max-length macro-steps, so its per-emitted-tick cost
// drops to the base-tick phases plus ~3 cached-factor solves per 16
// ticks. Acceptance: adaptive ≥ 3× faster per tick (the matching ≤ 0.1 °C
// error bound is pinned by sim.TestAdaptiveQuietPhaseMacroSteps).
func BenchmarkAdaptiveQuietPhase(b *testing.B) {
	b.Run("fixed", benchutil.QuietPhase(stepper.Fixed, 23, 20))
	b.Run("adaptive", benchutil.QuietPhase(stepper.Adaptive, 23, 20))
}

// BenchmarkAnalyzePaperResolution measures the direct solver's symbolic
// analysis plus first numeric factorization at the paper's 115×100 grid,
// reporting L-factor fill — the numbers the opt-in nightly CI job tracks.
func BenchmarkAnalyzePaperResolution(b *testing.B) {
	benchutil.AnalyzePaper(b)
}

// BenchmarkSolveBatch8 measures one blocked multi-RHS sweep of the
// paper-resolution factor (8 right-hand sides per op) against the same
// 8 systems solved one at a time. The blocked kernel traverses the
// factor once for the whole panel, so its per-RHS cost must be ≤ 50% of
// a lone Solve — the win rcnet.BatchStepper and the sim gang scheduler
// bank on.
func BenchmarkSolveBatch8(b *testing.B) {
	b.Run("batch", benchutil.SolveBatch8)
	b.Run("sequential", benchutil.SolveSequential8)
}

// BenchmarkFactorizePaperResolution measures the refactorize+solve at
// the paper's 115×100 grid — the flow-transition cost a running
// simulation pays — on the supernodal kernels the size gate picks there;
// 0 B/op in steady state.
func BenchmarkFactorizePaperResolution(b *testing.B) {
	benchutil.FactorizePaper(b)
}

// BenchmarkSolvePaperResolution is the per-tick counterpart: one
// cached-factor triangular solve at paper resolution, the supernodal
// panel sweeps (one contiguous pass per panel each way) every thermal
// tick pays there.
func BenchmarkSolvePaperResolution(b *testing.B) {
	benchutil.SolvePaper(b)
}

// BenchmarkRunManySharedFactor tracks the co-scheduled batch path: four
// platform-sharing fixed-flow scenarios on one worker, ganged through
// SolveBatch each tick. Compare against BenchmarkRunManyWarm for the
// ganging win on an oversubscribed batch.
func BenchmarkRunManySharedFactor(b *testing.B) {
	benchutil.RunManySharedFactor(b)
}

// BenchmarkRunManyCold / BenchmarkRunManyWarm bracket the platform
// layer's setup amortization: the same three-scenario short-run batch,
// once with per-run artifact construction (cold) and once through a
// primed coolsim.PlatformCache (warm). The cold/warm ratio is the
// end-to-end speedup a warm service job sees (acceptance: ≥ 2×).
func BenchmarkRunManyCold(b *testing.B) {
	benchutil.RunManyCold(b)
}

func BenchmarkRunManyWarm(b *testing.B) {
	benchutil.RunManyWarm(b)
}

// BenchmarkSessionStep is the streaming counterpart of BenchmarkSimTick:
// the same tick driven through the public coolsim.Session API with its
// per-tick Sample refresh. The delta between the two is the streaming
// overhead, which must stay at 0 B/op.
func BenchmarkSessionStep(b *testing.B) {
	benchutil.SessionStep(b)
}

// BenchmarkCampaignExpand measures the server-side sweep expansion a
// campaign submission pays up front: a 1440-member cartesian grid with
// a skip filter, materialized and validated into 1200 scenarios per op.
func BenchmarkCampaignExpand(b *testing.B) {
	benchutil.CampaignExpand(b)
}

// BenchmarkSampleEncode is the broadcast hub's per-tick encode: one
// Sample rendered once into a recycled NDJSON frame buffer, regardless
// of the subscriber count. Steady state must be 0 B/op.
func BenchmarkSampleEncode(b *testing.B) {
	benchutil.SampleEncode(b)
}

// BenchmarkStreamFanout{1,64,1024} measure the serve-millions fan-out:
// each op publishes one frame and delivers it to every subscriber.
// Acceptance: 0 allocs/op in steady state at any width, and the
// per-subscriber delivery cost (the ns/frame-delivery metric) stays
// ≤ 5% of re-simulating a tick (BenchmarkSimTick).
func BenchmarkStreamFanout1(b *testing.B) {
	benchutil.StreamFanout(1)(b)
}

func BenchmarkStreamFanout64(b *testing.B) {
	benchutil.StreamFanout(64)(b)
}

func BenchmarkStreamFanout1024(b *testing.B) {
	benchutil.StreamFanout(1024)(b)
}
