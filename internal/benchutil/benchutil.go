// Package benchutil holds the substrate benchmark bodies shared by the
// go-test harness (bench_test.go) and the JSON snapshot tool
// (cmd/benchjson), so the two always measure the identical regime: the
// same model setup, the same warm-up, the same varying-power tick loop.
package benchutil

import (
	"context"
	"testing"

	"repro/coolsim"
	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/rcnet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stepper"
	"repro/internal/stream"
	"repro/internal/units"
	"repro/internal/workload"
)

// StepModel builds the benchmark thermal model: the 2-layer liquid T1
// stack at nx×ny with full-load block powers and mid (0.5 l/min) flow,
// warmed by one tick so the timed loop measures the steady per-tick path
// — the first Step pays the one-time symbolic analysis and factorization
// that every later tick reuses from the (flow > 0, dt) cache.
func StepModel(nx, ny int) (*rcnet.Model, error) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(nx, ny))
	if err != nil {
		return nil, err
	}
	m, err := rcnet.New(g, rcnet.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for li, layer := range g.Stack.Layers {
		p := make([]float64, len(layer.Blocks))
		for bi, blk := range layer.Blocks {
			if blk.Kind == floorplan.KindCore {
				p[bi] = 3
			} else {
				p[bi] = 1
			}
		}
		if err := m.SetLayerPower(li, p); err != nil {
			return nil, err
		}
	}
	if err := m.SetFlow(0.5); err != nil {
		return nil, err
	}
	if err := m.Step(0.1); err != nil {
		return nil, err
	}
	return m, nil
}

// StepLoop is the timed per-tick loop with a per-tick power update, the
// regime every real simulation run is in.
func StepLoop(b *testing.B, m *rcnet.Model) {
	b.Helper()
	layers := m.Grid.Stack.Layers
	power := make([][]float64, len(layers))
	for li, layer := range layers {
		power[li] = make([]float64, len(layer.Blocks))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scale := 0.5 + 0.5*float64(i%10)/10
		for li, layer := range layers {
			for bi, blk := range layer.Blocks {
				if blk.Kind == floorplan.KindCore {
					power[li][bi] = 3 * scale
				} else {
					power[li][bi] = 1 * scale
				}
			}
			if err := m.SetLayerPower(li, power[li]); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Step(0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// ThermalStep returns the varying-power per-tick benchmark at one grid
// resolution.
func ThermalStep(nx, ny int) func(b *testing.B) {
	return func(b *testing.B) {
		m, err := StepModel(nx, ny)
		if err != nil {
			b.Fatal(err)
		}
		StepLoop(b, m)
	}
}

// SteadyState benchmarks the steady-state fixed point on the coarse grid,
// re-converging from a uniform 60 °C field each iteration. One warm solve
// before the timer pays the one-time dt=0 factorization, so the measured
// op is the steady cached-factor path (0 B/op — the earlier snapshots'
// ~4.4 KB/op was that first factorization amortized into the mean).
func SteadyState(b *testing.B) {
	m, err := StepModel(23, 20)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SteadyState(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetUniformTemp(units.Celsius(60).ToKelvin())
		if err := m.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

// SessionStep benchmarks one tick of the public streaming API: a full
// simulator tick plus the per-tick Sample refresh of coolsim.Session.
// Comparing it against SimTick isolates the streaming overhead, which
// must stay at 0 B/op so Session/observer streaming cannot regress the
// allocation-free tick loop.
func SessionStep(b *testing.B) {
	sc := coolsim.DefaultScenario()
	sc.Duration = 1e9 // stepped manually
	sc.Warmup = 0
	sc.GridNX, sc.GridNY = 23, 20
	s, err := coolsim.NewSession(context.Background(), sc)
	if err != nil {
		b.Fatal(err)
	}
	// Warm ticks: the first tick factors the (flow > 0, dt) system and the
	// controller's predictor fills its lags; the timed loop measures the
	// steady allocation-free path.
	for i := 0; i < 10; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// runManyScenarios is the short-run batch of the warm-vs-cold setup
// benchmarks: three workloads on one stack shape, 2 s measured after a
// 0.5 s warm-up — runs short enough that per-run artifact construction
// (LUT sweep, weight analysis, symbolic analysis) dominates the cold
// path, which is exactly the regime a service sees under bursty traffic.
func runManyScenarios() []coolsim.Scenario {
	names := []string{"Web-high", "Web-med", "gzip"}
	scs := make([]coolsim.Scenario, len(names))
	for i, n := range names {
		sc := coolsim.DefaultScenario()
		sc.Workload = n
		sc.Duration = 2
		sc.Warmup = 0.5
		sc.GridNX, sc.GridNY = 12, 10
		scs[i] = sc
	}
	return scs
}

// RunManyCold measures the batch with every run building its own
// platform artifacts — the pre-platform behavior.
func RunManyCold(b *testing.B) {
	scs := runManyScenarios()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coolsim.RunMany(context.Background(), scs); err != nil {
			b.Fatal(err)
		}
	}
}

// RunManyWarm measures the same batch through a primed PlatformCache:
// the artifacts exist, so each run is pure simulation. The cold/warm
// ratio is the end-to-end setup amortization the platform layer buys.
func RunManyWarm(b *testing.B) {
	scs := runManyScenarios()
	pc := coolsim.NewPlatformCache(0)
	if _, err := coolsim.RunMany(context.Background(), scs, coolsim.WithPlatformCache(pc)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coolsim.RunMany(context.Background(), scs, coolsim.WithPlatformCache(pc)); err != nil {
			b.Fatal(err)
		}
	}
}

// QuietPhase benchmarks one emitted tick of a thermally quiet regime —
// the workload generator scaled to zero, DPM sleeping every core, flow
// pinned at the max setting — under the given stepping engine and grid.
// The simulator is settled for 60 simulated seconds first, past the
// cool-down transient, so the timed region is the steady quiet phase the
// adaptive engine takes full-length macro-steps through. The fixed/
// adaptive pair at the same grid is the SimTick-equivalent throughput
// comparison of the multirate engine (acceptance: ≥ 3× on this phase
// with ≤ 0.1 °C error, which TestAdaptiveQuietPhaseMacroSteps pins).
func QuietPhase(kind stepper.Kind, nx, ny int) func(b *testing.B) {
	return func(b *testing.B) {
		bench, err := workload.ByName("Web-med")
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Bench = bench
		cfg.Cooling = sim.LiquidMax
		cfg.Policy = sched.LB
		cfg.DPMEnabled = true
		cfg.Duration = 1e9 // stepped manually
		cfg.Warmup = 0
		cfg.GridNX, cfg.GridNY = nx, ny
		cfg.UtilSchedule = func(units.Second) float64 { return 0 }
		cfg.Stepper = stepper.Config{Kind: kind}
		s, err := sim.New(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			if err := s.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// paperSystem builds the paper-resolution (115×100) backward-Euler
// system at mid flow — the setup of the analysis, factorization and
// solve benchmarks. The returned matrix aliases the model's assembly
// buffer, which nothing else touches afterwards.
func paperSystem(b *testing.B) *mat.CSR {
	b.Helper()
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(115, 100))
	if err != nil {
		b.Fatal(err)
	}
	m, err := rcnet.New(g, rcnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetFlow(0.5); err != nil {
		b.Fatal(err)
	}
	sys, err := m.SystemCSR(0.1)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// paperFactor analyzes and factorizes the paper-resolution system. At
// this size the analysis picks the supernodal dense-panel kernels, so
// every benchmark built on it measures them.
func paperFactor(b *testing.B) (*mat.LDLSymbolic, *mat.LDLNumeric, *mat.CSR) {
	b.Helper()
	sys := paperSystem(b)
	symb, err := mat.AnalyzeLDL(sys, mat.OrderAuto)
	if err != nil {
		b.Fatal(err)
	}
	if !symb.Supernodal() {
		b.Fatal("paper-resolution analysis did not pick the supernodal kernels")
	}
	num, err := symb.Factorize(sys, nil)
	if err != nil {
		b.Fatal(err)
	}
	return symb, num, sys
}

// AnalyzePaper measures the direct solver's symbolic analysis (ordering +
// elimination tree + fill pattern + supernode amalgamation) and first
// numeric factorization on the paper-resolution 115×100 grid, reporting
// the L-factor fill, the supernode count and the mean panel width as
// metrics. The nightly CI job tracks these — the ROADMAP's
// paper-resolution trajectory item.
func AnalyzePaper(b *testing.B) {
	sys := paperSystem(b)
	var symb *mat.LDLSymbolic
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if symb, err = mat.AnalyzeLDL(sys, mat.OrderAuto); err != nil {
			b.Fatal(err)
		}
		if _, err := symb.Factorize(sys, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(symb.NNZL()), "nnzL")
	b.ReportMetric(float64(symb.Supernodes()), "supernodes")
	b.ReportMetric(symb.MeanPanelWidth(), "mean-panel-width")
}

// batchRHS allocates k solution buffers and k distinct right-hand sides
// of size n (distinct so the batch sweep cannot benefit from identical
// columns).
func batchRHS(n, k int) (xs, bs [][]float64) {
	xs = make([][]float64, k)
	bs = make([][]float64, k)
	for j := range bs {
		xs[j] = make([]float64, n)
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = 1 + float64((i+3*j)%7)
		}
	}
	return xs, bs
}

// SolveBatch8 benchmarks one blocked multi-RHS sweep of the paper-
// resolution factor: a single SolveBatch over 8 right-hand sides per op.
// Against SolveSequential8 — the identical 8 systems as individual Solve
// calls — it tracks the per-RHS win of traversing the factor once for
// the whole block (acceptance: per-RHS cost ≤ 50% of a lone Solve). The
// supernodal batch body mirrors the sequential solve's operation order
// lane by lane, so its lanes are bit-identical to 8 lone Solves
// (mat.TestSupernodalSolveBatchMatchesSequential).
func SolveBatch8(b *testing.B) {
	_, num, sys := paperFactor(b)
	xs, bs := batchRHS(sys.N, 8)
	num.SolveBatch(xs, bs) // warm sweep: allocates the width-8 panel buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		num.SolveBatch(xs, bs)
	}
}

// SolveSequential8 is the unblocked reference for SolveBatch8: the same
// factor and the same 8 right-hand sides, solved one at a time.
func SolveSequential8(b *testing.B) {
	_, num, sys := paperFactor(b)
	xs, bs := batchRHS(sys.N, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range bs {
			num.Solve(xs[j], bs[j])
		}
	}
}

// unitRHS returns a fixed non-trivial right-hand side of size n.
func unitRHS(n int) []float64 {
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1 + float64(i%5)
	}
	return rhs
}

// FactorizePaper benchmarks the paper-resolution refactorize+solve: each
// op is one numeric factorization of the 115×100 backward-Euler system
// into a reused factor plus one triangular solve — the flow-transition
// cost a running simulation pays. Steady state is 0 B/op.
func FactorizePaper(b *testing.B) {
	symb, num, sys := paperFactor(b)
	x, rhs := make([]float64, sys.N), unitRHS(sys.N)
	num.Solve(x, rhs) // warm the solve scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if num, err = symb.Factorize(sys, num); err != nil {
			b.Fatal(err)
		}
		num.Solve(x, rhs)
	}
}

// SolvePaper benchmarks one cached-factor triangular solve at paper
// resolution — the per-tick cost of a thermal step there: the supernodal
// panel sweeps (one contiguous pass per panel each way), 0 B/op after
// the first warmed call.
func SolvePaper(b *testing.B) {
	_, num, sys := paperFactor(b)
	x, rhs := make([]float64, sys.N), unitRHS(sys.N)
	num.Solve(x, rhs) // warm the solve scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		num.Solve(x, rhs)
	}
}

// RunManySharedFactor measures the co-scheduled batch path: four
// scenarios sharing one platform and one fixed-flow factor key, squeezed
// onto a single worker so RunMany gangs their per-tick solves through
// SolveBatch. The body asserts the gang actually batched (a silent fall
// back to solo stepping would leave the number meaningless) and reports
// the batched-solve count per op.
func RunManySharedFactor(b *testing.B) {
	scs := make([]coolsim.Scenario, 4)
	for i := range scs {
		sc := coolsim.DefaultScenario()
		sc.Workload = "Web-med"
		sc.Seed = int64(i + 1)
		sc.Cooling = coolsim.CoolingMax
		sc.Duration = 2
		sc.Warmup = 0.5
		sc.GridNX, sc.GridNY = 12, 10
		scs[i] = sc
	}
	pc := coolsim.NewPlatformCache(0)
	var ctr coolsim.BatchCounters
	opts := []coolsim.Option{
		coolsim.WithPlatformCache(pc),
		coolsim.WithWorkers(1),
		coolsim.WithBatchCounters(&ctr),
	}
	if _, err := coolsim.RunMany(context.Background(), scs, opts...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coolsim.RunMany(context.Background(), scs, opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := ctr.Stats()
	if st.BatchedSolves == 0 {
		b.Fatal("expected batched solves in the ganged batch")
	}
	b.ReportMetric(float64(st.BatchedSolves)/float64(b.N+1), "batched-solves/op")
}

// SimTick benchmarks one full simulator tick (workload, scheduling, DPM,
// power, flow control, thermal step, metrics) on the coarse grid.
func SimTick(b *testing.B) {
	bench, err := workload.ByName("Web-med")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Bench = bench
	cfg.Duration = 1e9 // stepped manually
	cfg.Warmup = 0
	cfg.GridNX, cfg.GridNY = 23, 20
	s, err := sim.New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm ticks, as in SessionStep: measure the steady tick path.
	for i := 0; i < 10; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// CampaignExpand measures the server-side cost of lowering a campaign
// submission to its member scenarios — the work POST /v1/campaigns does
// before anything touches the queue or the results tree: a 1440-member
// cartesian grid (2 layer counts × 3 cooling classes × 3 policies ×
// DPM on/off × 40 seeds) with a skip filter pruning the air-cooled DPM
// corner, every surviving member materialized against the scenario
// defaults and validated. 1200 members survive per op.
func CampaignExpand(b *testing.B) {
	seeds := make([]int64, 40)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	dpmOn := true
	camp := coolsim.Campaign{
		Name: "bench",
		Sweep: &coolsim.Sweep{
			Base:    coolsim.Scenario{Workload: "gzip", Duration: 10, Warmup: 2},
			Layers:  []int{2, 4},
			Cooling: []string{coolsim.CoolingAir, coolsim.CoolingMax, coolsim.CoolingVar},
			Policy:  []string{coolsim.PolicyLB, coolsim.PolicyMigration, coolsim.PolicyTALB},
			DPM:     []bool{false, true},
			Seeds:   seeds,
			Skip:    []coolsim.SweepFilter{{Cooling: coolsim.CoolingAir, DPM: &dpmOn}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var members int
	for i := 0; i < b.N; i++ {
		scs, err := camp.Expand()
		if err != nil {
			b.Fatal(err)
		}
		members = len(scs)
		if members != 1200 {
			b.Fatalf("expanded %d members, want 1200", members)
		}
	}
	b.ReportMetric(float64(members), "members/op")
}

// benchSample is a realistic mid-run Sample for the streaming
// benchmarks: a 4-layer stack tick with non-round temperatures, so the
// NDJSON float encoder does shortest-round-trip work comparable to a
// live run's frames.
func benchSample() *coolsim.Sample {
	return &coolsim.Sample{
		Time:       123.4,
		Measured:   true,
		TmaxC:      78.4375219,
		LayerMaxC:  []float64{77.91204, 78.4375219, 76.005831, 71.22294},
		LayerMeanC: []float64{68.20441, 69.017765, 67.4402, 64.98837},
		Setting:    2,
		FlowMLMin:  512.5,
		ChipPowerW: 103.73021,
		PumpPowerW: 1.8132,
		Migrations: 7,
		Refits:     1,
	}
}

// SampleEncode measures the hub's single NDJSON frame encode — the work
// a publish performs exactly once per tick no matter how many stream
// subscribers are attached. Steady state must be 0 B/op: the frame is
// appended into the recycled ring-slot buffer.
func SampleEncode(b *testing.B) {
	smp := benchSample()
	buf := stream.AppendSample(nil, smp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = stream.AppendSample(buf[:0], smp)
	}
	_ = buf
}

// StreamFanout measures the broadcast hub's steady-state fan-out cost:
// each op publishes one Sample (a single encode into a recycled ring
// slot) and delivers the frame to every one of subs attached
// subscribers. The acceptance bar for the serve-millions story is that
// the per-subscriber delivery cost stays a tiny fraction (≤ 5%) of
// re-simulating a tick (BenchmarkSimTick) and allocates nothing —
// fanning a run out to N followers must cost O(bytes copied), not
// O(simulation).
func StreamFanout(subs int) func(b *testing.B) {
	return func(b *testing.B) {
		h := stream.NewHub(stream.Config{RingFrames: 1024})
		smp := benchSample()
		sl := make([]*stream.Sub, subs)
		bufs := make([][]byte, subs)
		for i := range sl {
			s, err := h.Subscribe(stream.Latest)
			if err != nil {
				b.Fatal(err)
			}
			sl[i] = s
			bufs[i] = make([]byte, 0, 1024)
		}
		drain := func() {
			for i, s := range sl {
				chunk, _, done := s.Next(bufs[i][:0])
				if done {
					b.Fatal("subscriber finished mid-benchmark")
				}
				if len(chunk) == 0 {
					b.Fatal("subscriber missed a frame")
				}
			}
		}
		// Warm one publish/drain round so every per-subscriber buffer and
		// the ring slot have their steady capacity.
		h.Publish(smp)
		drain()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Publish(smp)
			drain()
		}
		b.StopTimer()
		if subs > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*subs), "ns/frame-delivery")
		}
	}
}
