package coolsim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func quickScenario() Scenario {
	sc := DefaultScenario()
	sc.Duration = 10
	sc.Warmup = 2
	sc.GridNX, sc.GridNY = 12, 10
	return sc
}

func TestRunDefaultScenario(t *testing.T) {
	r, err := Run(context.Background(), quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples == 0 || r.Completed == 0 {
		t.Errorf("empty report: %+v", r)
	}
	if r.MaxTempC < 60 || r.MaxTempC > 100 {
		t.Errorf("implausible Tmax %v", r.MaxTempC)
	}
}

func TestTypedScenarioErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Scenario)
		want   error
	}{
		{func(sc *Scenario) { sc.Workload = "bogus" }, ErrUnknownWorkload},
		{func(sc *Scenario) { sc.Cooling = "freon" }, ErrUnknownCooling},
		{func(sc *Scenario) { sc.Policy = "rr" }, ErrUnknownPolicy},
		{func(sc *Scenario) { sc.Layers = 5 }, ErrBadLayers},
	}
	for _, c := range cases {
		sc := quickScenario()
		c.mutate(&sc)
		if err := sc.Validate(); !errors.Is(err, c.want) {
			t.Errorf("Validate() = %v, want %v", err, c.want)
		}
		if _, err := Run(context.Background(), sc); !errors.Is(err, c.want) {
			t.Errorf("Run() = %v, want %v", err, c.want)
		}
	}
	if err := quickScenario().Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestWriteSummary(t *testing.T) {
	r, err := Run(context.Background(), quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"scenario:", "Tmax observed", "energy:", "throughput:", "controller:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestRunManyMatchesRun(t *testing.T) {
	sc1 := quickScenario()
	sc2 := quickScenario()
	sc2.Workload = "gzip"
	reports, err := RunMany(context.Background(), []Scenario{sc1, sc2}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	solo, err := Run(context.Background(), sc2)
	if err != nil {
		t.Fatal(err)
	}
	if reports[1].ChipEnergyJ != solo.ChipEnergyJ || reports[1].MaxTempC != solo.MaxTempC {
		t.Errorf("RunMany[1] diverges from solo Run: %+v vs %+v", reports[1], solo)
	}
	if reports[0].Scenario.Workload != "Web-med" || reports[1].Scenario.Workload != "gzip" {
		t.Errorf("reports out of input order")
	}
}

func TestRunManyValidatesEagerly(t *testing.T) {
	bad := quickScenario()
	bad.Workload = "bogus"
	_, err := RunMany(context.Background(), []Scenario{quickScenario(), bad})
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("err = %v, want ErrUnknownWorkload", err)
	}
}

// TestRunManyCancelPrompt is the acceptance check of the context plumbing:
// canceling mid-flight must abort every in-flight scenario within one
// simulated tick and surface ctx.Err(), long before the scenarios'
// nominal durations (an hour of simulated time each) could complete.
func TestRunManyCancelPrompt(t *testing.T) {
	sc := quickScenario()
	sc.Duration = 3600
	sc.Cooling = CoolingMax // no LUT build: runs start immediately
	sc.Policy = PolicyLB
	scs := []Scenario{sc, sc, sc, sc}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := RunMany(ctx, scs, WithWorkers(2))
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the first ticks run
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunMany returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunMany did not return promptly after cancellation")
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, quickScenario()); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestCancelDuringConstruction covers the expensive pre-tick phase: a
// LiquidVar session builds the controller LUT (a steady-state sweep) in
// NewSession, and a context that dies mid-build must abort it promptly
// rather than after the whole sweep.
func TestCancelDuringConstruction(t *testing.T) {
	sc := DefaultScenario() // var cooling at the full 23×20 grid: real LUT build
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewSession(ctx, sc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("NewSession under dying ctx = %v, want DeadlineExceeded", err)
	}
	// The full sweep is 5 settings × 15 ladder points of steady-state
	// solves; aborting must take ~one solve, far under the full build.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("construction abort took %v", elapsed)
	}
}

func TestObserverSeesEveryTick(t *testing.T) {
	sc := quickScenario()
	var n int
	var firstTime, lastTime float64
	var maxSeen float64
	r, err := Run(context.Background(), sc, WithObserver(func(s *Sample) {
		if n == 0 {
			firstTime = s.Time
		}
		lastTime = s.Time
		if s.TmaxC > maxSeen {
			maxSeen = s.TmaxC
		}
		if len(s.LayerMaxC) != 2 || len(s.LayerMeanC) != 2 {
			t.Fatalf("bad layer slice lengths in sample: %+v", s)
		}
		n++
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up ticks (negative time) stream too; measured ticks match the
	// report's sample count.
	if firstTime >= 0 {
		t.Errorf("first observed tick at t=%v, want warm-up (negative)", firstTime)
	}
	if n <= r.Samples {
		t.Errorf("observer saw %d ticks, want > %d (warm-up included)", n, r.Samples)
	}
	if lastTime < sc.Duration-0.2 {
		t.Errorf("last observed tick at t=%v, want ≈ %v", lastTime, sc.Duration)
	}
	if maxSeen < 60 || maxSeen > 100 {
		t.Errorf("implausible streamed Tmax %v", maxSeen)
	}
}

func TestRunWithFaults(t *testing.T) {
	sc := quickScenario()
	stuck := 0
	sc.Faults = Faults{PumpStuck: &stuck}
	r, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := Run(context.Background(), quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r.PumpEnergyJ >= healthy.PumpEnergyJ {
		t.Errorf("pump stuck at min should use less pump energy: stuck %v, healthy %v",
			r.PumpEnergyJ, healthy.PumpEnergyJ)
	}
}

func TestUtilSchedule(t *testing.T) {
	sc := quickScenario()
	sc.Cooling = CoolingMax
	sc.UtilSchedule = func(t float64) float64 { return 0 } // idle system
	idle, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.UtilSchedule = nil
	busy, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if idle.Completed != 0 {
		t.Errorf("idle schedule still completed %d threads", idle.Completed)
	}
	if busy.Completed == 0 {
		t.Error("busy run completed nothing")
	}
}

func TestOptionsOverrideScenario(t *testing.T) {
	sc := quickScenario()
	sc.Duration = 5
	// A different grid via option must beat the scenario's 12×10 and
	// still produce a full run; a bogus stepper option must fail typed.
	if _, err := Run(context.Background(), sc, WithGrid(14, 12)); err != nil {
		t.Fatalf("option overrides failed: %v", err)
	}
	if _, err := Run(context.Background(), sc, WithStepper(Stepping{Mode: "bogus"})); !errors.Is(err, ErrUnknownStepping) {
		t.Errorf("WithStepper(bogus) = %v, want ErrUnknownStepping", err)
	}
	// A 10× coarser tick yields ~10× fewer samples.
	r, err := Run(context.Background(), sc, WithTick(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 5 {
		t.Errorf("tick=1s over 5s gave %d samples, want 5", r.Samples)
	}
}

func TestWorkloadsComplete(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 {
		t.Fatalf("workloads = %v", ws)
	}
	if ws[0] != "Web-med" || ws[7] != "MPlayer&Web" {
		t.Errorf("unexpected ordering: %v", ws)
	}
}

func TestAnalysisLifecycle(t *testing.T) {
	a, err := NewAnalysis(2, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Layers() != 2 || a.Cores() != 8 || a.Cavities() != 3 {
		t.Errorf("geometry: layers %d cores %d cavities %d", a.Layers(), a.Cores(), a.Cavities())
	}
	flows := a.SettingFlowsMLMin()
	if len(flows) != a.NumSettings() {
		t.Fatalf("flows len %d, want %d", len(flows), a.NumSettings())
	}
	for s := 1; s < len(flows); s++ {
		if flows[s] <= flows[s-1] {
			t.Errorf("flows not increasing: %v", flows)
		}
	}
	powers := a.SettingPowersW()
	if len(powers) != a.NumSettings() || powers[len(powers)-1] <= powers[0] {
		t.Errorf("implausible pump powers: %v", powers)
	}
	lut, err := a.BuildLUT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(lut.Ladder) == 0 || len(lut.TmaxC) != a.NumSettings() ||
		len(lut.RequiredSetting) != len(lut.Ladder) {
		t.Errorf("malformed LUT: %+v", lut)
	}
	w, err := a.BuildWeights(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 8 {
		t.Errorf("weights for %d cores", len(w))
	}
	if _, err := NewAnalysis(3, 12, 10); !errors.Is(err, ErrBadLayers) {
		t.Error("expected ErrBadLayers for 3 layers")
	}
}
