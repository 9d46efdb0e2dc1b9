// Package benchutil is the substrate benchmark registry: one ordered
// list of the thermal, simulation, service and streaming hot-path
// benchmarks that the go-test harness (BenchmarkSubstrate in
// bench_test.go) and the JSON snapshot tool (cmd/benchjson) both run,
// so the two always measure the identical regime: the same model setup,
// the same warm-up, the same varying-power tick loop.
package benchutil

import (
	"context"
	"testing"

	"repro/coolsim"
	"repro/internal/arma"
	"repro/internal/controller"
	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/platform"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stepper"
	"repro/internal/stream"
	"repro/internal/units"
	"repro/internal/workload"
)

// Bench is one entry of the registry.
type Bench struct {
	// Name names the entry in snapshots and, as Substrate/<Name>, under
	// go test: letters and digits only, so -bench 'Substrate/^<Name>$'
	// selects exactly this entry.
	Name string
	Run  func(*testing.B)
	// MinIters is the fewest timed ops a snapshot measures Run over (0:
	// one testing.Benchmark run). The paper-resolution trackers set it:
	// over a second per op, one default run would time a single sample.
	MinIters int
}

// Benches is the registry, in snapshot order. Snapshot names are kept
// stable across changes so BENCH_*.json trajectories compare.
var Benches = []Bench{
	{Name: "ThermalStepCoarse", Run: thermalStep(23, 20)},
	// The paper's 100 µm grid: 115×100 cells per slab.
	{Name: "ThermalStepPaperResolution", Run: thermalStep(115, 100)},
	{Name: "SteadyState", Run: steadyState},
	{Name: "LUTBuild", Run: lutBuild},
	{Name: "ARMAFit", Run: armaFit},
	{Name: "ControllerDecide", Run: controllerDecide},
	{Name: "SimTick", Run: simTick},
	{Name: "SessionStep", Run: sessionStep},
	{Name: "QuietPhaseFixed", Run: quietPhase(stepper.Fixed, 23, 20)},
	{Name: "QuietPhaseAdaptive", Run: quietPhase(stepper.Adaptive, 23, 20)},
	{Name: "RunManyCold", Run: runManyCold},
	{Name: "RunManyWarm", Run: runManyWarm},
	{Name: "RunManySharedFactor", Run: runManySharedFactor},
	{Name: "CampaignExpand", Run: campaignExpand},
	{Name: "SampleEncode", Run: sampleEncode},
	{Name: "StreamFanout1", Run: streamFanout(1)},
	{Name: "StreamFanout64", Run: streamFanout(64)},
	{Name: "StreamFanout1024", Run: streamFanout(1024)},
	{Name: "AnalyzePaperResolution", Run: analyzePaper, MinIters: 3},
	{Name: "FactorizePaperResolution", Run: factorizePaper, MinIters: 3},
	{Name: "SolvePaperResolution", Run: solvePaper, MinIters: 3},
}

// liquidModel builds the benchmark thermal model: the 2-layer liquid T1
// stack at nx×ny with mid (0.5 l/min) flow.
func liquidModel(b *testing.B, nx, ny int) *rcnet.Model {
	b.Helper()
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(nx, ny))
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
	return m
}

// stepModel is the liquidModel at full-load block powers, warmed by one
// tick so the timed loop measures the steady per-tick path — the first
// Step pays the one-time symbolic analysis and factorization that every
// later tick reuses from the (flow > 0, dt) cache. It returns the
// per-layer power buffers setPower fills.
func stepModel(b *testing.B, nx, ny int) (*rcnet.Model, [][]float64) {
	b.Helper()
	m := liquidModel(b, nx, ny)
	layers := m.Grid.Stack.Layers
	power := make([][]float64, len(layers))
	for li, layer := range layers {
		power[li] = make([]float64, len(layer.Blocks))
	}
	setPower(b, m, power, 1)
	if err := m.Step(0.1); err != nil {
		b.Fatal(err)
	}
	return m, power
}

// setPower injects scale W into every block, 3·scale W into every core.
func setPower(b *testing.B, m *rcnet.Model, power [][]float64, scale float64) {
	for li, layer := range m.Grid.Stack.Layers {
		for bi, blk := range layer.Blocks {
			power[li][bi] = scale
			if blk.Kind == floorplan.KindCore {
				power[li][bi] = 3 * scale
			}
		}
		if err := m.SetLayerPower(li, power[li]); err != nil {
			b.Fatal(err)
		}
	}
}

// thermalStep returns the per-tick benchmark at one grid resolution: a
// power update and one Step per op, the regime every real simulation
// run is in.
func thermalStep(nx, ny int) func(b *testing.B) {
	return func(b *testing.B) {
		m, power := stepModel(b, nx, ny)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			setPower(b, m, power, 0.5+0.5*float64(i%10)/10)
			if err := m.Step(0.1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// steadyState benchmarks the steady-state fixed point on the coarse grid,
// re-converging from a uniform 60 °C field each iteration. One warm solve
// before the timer pays the one-time dt=0 factorization, so the measured
// op is the steady cached-factor path (0 B/op — the earlier snapshots'
// ~4.4 KB/op was that first factorization amortized into the mean).
func steadyState(b *testing.B) {
	m, _ := stepModel(b, 23, 20)
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

// lutStack is the 2-layer liquid 12×10 grid, pump and full-load block
// powers the LUT benchmarks sweep.
func lutStack(b *testing.B) (*grid.Grid, *pump.Pump, [][]float64) {
	b.Helper()
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		b.Fatal(err)
	}
	pm, err := pump.New(3)
	if err != nil {
		b.Fatal(err)
	}
	full, err := platform.FullLoadPowers(g.Stack)
	if err != nil {
		b.Fatal(err)
	}
	return g, pm, full
}

// buildLUT sweeps the controller's flow LUT on a fresh thermal model of g.
func buildLUT(b *testing.B, g *grid.Grid, pm *pump.Pump, full [][]float64) *controller.LUT {
	m, err := rcnet.New(g, rcnet.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lut, err := controller.BuildLUT(context.Background(), m, pm, full, controller.TargetTemp, controller.DefaultLadder())
	if err != nil {
		b.Fatal(err)
	}
	return lut
}

// lutBuild measures one buildLUT of the lutStack: the cold-platform
// setup cost every new stack shape pays once.
func lutBuild(b *testing.B) {
	g, pm, full := lutStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildLUT(b, g, pm, full)
	}
}

// armaFit measures one ARMA model fit over a 300-sample temperature
// history, the controller's periodic predictor refit.
func armaFit(b *testing.B) {
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

// controllerDecide measures one controller observation plus flow
// decision on a built LUT, the per-tick cost of variable-flow control.
func controllerDecide(b *testing.B) {
	g, pm, full := lutStack(b)
	lut := buildLUT(b, g, pm, full)
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

// sessionStep benchmarks one tick of the public streaming API: a full
// simulator tick plus the per-tick Sample refresh of coolsim.Session.
// Comparing it against SimTick isolates the streaming overhead, which
// must stay at 0 B/op so Session/observer streaming cannot regress the
// allocation-free tick loop.
func sessionStep(b *testing.B) {
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
	tickLoop(b, 10, func() error { _, err := s.Step(); return err })
}

// shortRun is one run of the RunMany benchmarks: 2 s measured after a
// 0.5 s warm-up at 12×10 — short enough that platform artifact
// construction (LUT sweep, weight analysis, symbolic analysis) dominates
// a call without a warm cache, which is exactly the regime a service
// sees under bursty traffic.
func shortRun(workload string) coolsim.Scenario {
	sc := coolsim.DefaultScenario()
	sc.Workload = workload
	sc.Duration, sc.Warmup = 2, 0.5
	sc.GridNX, sc.GridNY = 12, 10
	return sc
}

// runManyScenarios is the batch of the warm-vs-cold setup benchmarks:
// three workloads on one stack shape.
func runManyScenarios() []coolsim.Scenario {
	return []coolsim.Scenario{shortRun("Web-high"), shortRun("Web-med"), shortRun("gzip")}
}

// runManyLoop times one RunMany of scs per op. prime runs the batch
// once before the timer, filling whatever platform cache opts carry.
func runManyLoop(b *testing.B, scs []coolsim.Scenario, prime bool, opts ...coolsim.Option) {
	b.Helper()
	if prime {
		if _, err := coolsim.RunMany(context.Background(), scs, opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coolsim.RunMany(context.Background(), scs, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// runManyCold measures the batch without a PlatformCache: each call
// builds its stack's platform artifacts once, for its own runs.
func runManyCold(b *testing.B) {
	runManyLoop(b, runManyScenarios(), false)
}

// runManyWarm measures the same batch through a primed PlatformCache:
// the artifacts exist, so each run is pure simulation. The cold/warm
// ratio is the end-to-end setup amortization the platform layer buys
// (acceptance: ≥ 2×).
func runManyWarm(b *testing.B) {
	runManyLoop(b, runManyScenarios(), true, coolsim.WithPlatformCache(coolsim.NewPlatformCache(0)))
}

// quietPhase benchmarks one emitted tick of a thermally quiet regime —
// the workload generator scaled to zero, DPM sleeping every core, flow
// pinned at the max setting — under the given stepping engine and grid.
// The simulator is settled for 60 simulated seconds first, past the
// cool-down transient, so the timed region is the steady quiet phase the
// adaptive engine takes full-length macro-steps through. The fixed/
// adaptive pair at the same grid is the SimTick-equivalent throughput
// comparison of the multirate engine (acceptance: ≥ 3× on this phase
// with ≤ 0.1 °C error, which TestAdaptiveQuietPhaseMacroSteps pins).
func quietPhase(kind stepper.Kind, nx, ny int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := webMedSim(b, nx, ny)
		cfg.Cooling = sim.LiquidMax
		cfg.Policy = sched.LB
		cfg.DPMEnabled = true
		cfg.UtilSchedule = func(units.Second) float64 { return 0 }
		cfg.Stepper = stepper.Config{Kind: kind}
		simLoop(b, cfg, 600)
	}
}

// webMedSim is the manually stepped Web-med simulator configuration on
// a fresh 2-layer liquid-cooled nx×ny platform that the sim-tick
// benchmarks start from.
func webMedSim(b *testing.B, nx, ny int) sim.Config {
	b.Helper()
	bench, err := workload.ByName("Web-med")
	if err != nil {
		b.Fatal(err)
	}
	p, err := platform.New(platform.Spec{
		Layers: 2, Liquid: true, GridNX: nx, GridNY: ny, RC: rcnet.DefaultConfig(),
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Bench = bench
	cfg.Duration = 1e9 // stepped manually
	cfg.Warmup = 0
	cfg.Platform = p
	return cfg
}

// simLoop builds the simulator for cfg and times one Step per op after
// warm untimed ticks.
func simLoop(b *testing.B, cfg sim.Config, warm int) {
	b.Helper()
	s, err := sim.New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	tickLoop(b, warm, s.Step)
}

// tickLoop calls step warm times before the timer, so the timed loop of
// one step per op measures the steady tick path.
func tickLoop(b *testing.B, warm int, step func() error) {
	b.Helper()
	for i := 0; i < warm; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

// paperSystem builds the paper-resolution (115×100) backward-Euler
// system at mid flow — the setup of the analysis, factorization and
// solve benchmarks. The returned matrix aliases the model's assembly
// buffer, which nothing else touches afterwards.
func paperSystem(b *testing.B) *mat.CSR {
	b.Helper()
	sys, err := liquidModel(b, 115, 100).SystemCSR(0.1)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// paperFactor analyzes and factorizes the paper-resolution system, and
// warms the solve scratch with one solve into x of a fixed non-trivial
// right-hand side rhs. At this size the analysis picks the supernodal
// dense-panel kernels, so every benchmark built on it measures them.
func paperFactor(b *testing.B) (symb *mat.LDLSymbolic, num *mat.LDLNumeric, sys *mat.CSR, x, rhs []float64) {
	b.Helper()
	sys = paperSystem(b)
	symb, err := mat.AnalyzeLDL(sys, mat.OrderAuto)
	if err != nil {
		b.Fatal(err)
	}
	if !symb.Supernodal() {
		b.Fatal("paper-resolution analysis did not pick the supernodal kernels")
	}
	if num, err = symb.Factorize(sys, nil); err != nil {
		b.Fatal(err)
	}
	x, rhs = make([]float64, sys.N), make([]float64, sys.N)
	for i := range rhs {
		rhs[i] = 1 + float64(i%5)
	}
	num.Solve(x, rhs)
	return symb, num, sys, x, rhs
}

// analyzePaper measures the direct solver's symbolic analysis (ordering +
// elimination tree + fill pattern + supernode amalgamation) and first
// numeric factorization on the paper-resolution 115×100 grid, reporting
// the L-factor fill, the supernode count and the mean panel width as
// metrics, so every snapshot carries the paper-resolution solver
// trajectory.
func analyzePaper(b *testing.B) {
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

// factorizePaper benchmarks the paper-resolution refactorize+solve: each
// op is one numeric factorization of the 115×100 backward-Euler system
// into a reused factor plus one triangular solve — the flow-transition
// cost a running simulation pays. Steady state is 0 B/op.
func factorizePaper(b *testing.B) {
	symb, num, sys, x, rhs := paperFactor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if num, err = symb.Factorize(sys, num); err != nil {
			b.Fatal(err)
		}
		num.Solve(x, rhs)
	}
}

// solvePaper benchmarks one cached-factor triangular solve at paper
// resolution — the per-tick cost of a thermal step there: the supernodal
// panel sweeps (one contiguous pass per panel each way), 0 B/op after
// the first warmed call.
func solvePaper(b *testing.B) {
	_, num, _, x, rhs := paperFactor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		num.Solve(x, rhs)
	}
}

// runManySharedFactor measures the co-scheduled batch path: four
// scenarios sharing one platform and one fixed-flow factor key, squeezed
// onto a single worker so RunMany gangs their per-tick solves through
// SolveBatch. The body asserts the gang actually batched (a silent fall
// back to solo stepping would leave the number meaningless) and reports
// the batched-solve count per op.
func runManySharedFactor(b *testing.B) {
	scs := make([]coolsim.Scenario, 4)
	for i := range scs {
		scs[i] = shortRun("Web-med")
		scs[i].Seed = int64(i + 1)
		scs[i].Cooling = coolsim.CoolingMax
	}
	var ctr coolsim.BatchCounters
	runManyLoop(b, scs, true, coolsim.WithPlatformCache(coolsim.NewPlatformCache(0)),
		coolsim.WithWorkers(1), coolsim.WithBatchCounters(&ctr))
	b.StopTimer()
	st := ctr.Stats()
	if st.BatchedSolves == 0 {
		b.Fatal("expected batched solves in the ganged batch")
	}
	b.ReportMetric(float64(st.BatchedSolves)/float64(b.N+1), "batched-solves/op")
}

// simTick benchmarks one full simulator tick (workload, scheduling, DPM,
// power, flow control, thermal step, metrics) on the coarse grid, after
// 10 warm ticks as in sessionStep.
func simTick(b *testing.B) {
	simLoop(b, webMedSim(b, 23, 20), 10)
}

// campaignExpand measures the server-side cost of lowering a campaign
// submission to its member scenarios — the work POST /v1/campaigns does
// before anything touches the queue or the results tree: a 1440-member
// cartesian grid (2 layer counts × 3 cooling classes × 3 policies ×
// DPM on/off × 40 seeds) with a skip filter pruning the air-cooled DPM
// corner, every surviving member materialized against the scenario
// defaults and validated. 1200 members survive per op.
func campaignExpand(b *testing.B) {
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

// sampleEncode measures the hub's single NDJSON frame encode — the work
// a publish performs exactly once per tick no matter how many stream
// subscribers are attached. Steady state must be 0 B/op: the frame is
// appended into the recycled ring-slot buffer.
func sampleEncode(b *testing.B) {
	smp := benchSample()
	buf := stream.AppendSample(nil, smp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = stream.AppendSample(buf[:0], smp)
	}
	_ = buf
}

// streamFanout measures the broadcast hub's steady-state fan-out cost:
// each op publishes one Sample (a single encode into a recycled ring
// slot) and delivers the frame to every one of subs attached
// subscribers. The acceptance bar for the serve-millions story is that
// the per-subscriber delivery cost stays a tiny fraction (≤ 5%) of
// re-simulating a tick (SimTick) and allocates nothing —
// fanning a run out to N followers must cost O(bytes copied), not
// O(simulation).
func streamFanout(subs int) func(b *testing.B) {
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
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*subs), "ns/frame-delivery")
	}
}
