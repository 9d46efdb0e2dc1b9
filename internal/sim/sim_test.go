package sim

import (
	"context"

	"math"
	"testing"

	"repro/internal/controller"
	"repro/internal/platform"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// testPlatforms shares the tests' platforms: a run on a shared platform
// is bit-identical to one on a fresh platform of the same spec.
var testPlatforms = platform.NewCache(0)

// onStack puts cfg on the platform of a layers-high stack at an nx×ny
// grid with the default thermal config, in cfg's cooling class.
func onStack(t testing.TB, cfg Config, layers, nx, ny int) Config {
	t.Helper()
	p, err := testPlatforms.Get(platform.Spec{
		Layers: layers, Liquid: cfg.Cooling != Air,
		GridNX: nx, GridNY: ny, RC: rcnet.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platform = p
	return cfg
}

// quickCfg returns a short run on the coarse 2-layer stack for tests.
func quickCfg(t *testing.T, cooling CoolingMode, policy sched.Policy, bench string) Config {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cooling = cooling
	cfg.Policy = policy
	cfg.Bench = b
	cfg.Duration = 12
	cfg.Warmup = 3
	return onStack(t, cfg, 2, 12, 10)
}

func TestRunLiquidVarCompletes(t *testing.T) {
	r, err := Run(context.Background(), quickCfg(t, LiquidVar, sched.TALB, "Web-med"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples == 0 {
		t.Fatal("no samples collected")
	}
	if r.Completed == 0 {
		t.Error("no threads completed")
	}
	if r.ChipEnergy <= 0 || r.PumpEnergy <= 0 {
		t.Errorf("energies not positive: chip %v pump %v", r.ChipEnergy, r.PumpEnergy)
	}
}

func TestRunAirHasNoPumpEnergy(t *testing.T) {
	r, err := Run(context.Background(), quickCfg(t, Air, sched.LB, "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	if r.PumpEnergy != 0 {
		t.Errorf("air-cooled pump energy = %v, want 0", r.PumpEnergy)
	}
	if r.MeanFlowLPM != 0 {
		t.Errorf("air-cooled mean flow = %v, want 0", r.MeanFlowLPM)
	}
}

func TestLiquidMaxConstantSetting(t *testing.T) {
	s, err := New(context.Background(), quickCfg(t, LiquidMax, sched.LB, "Web-high"))
	if err != nil {
		t.Fatal(err)
	}
	for s.Time() < 2 {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if s.AppliedSetting() != pump.MaxSetting() {
			t.Fatalf("LiquidMax changed setting to %v", s.AppliedSetting())
		}
	}
}

func TestVarUsesLessPumpEnergyThanMax(t *testing.T) {
	// The headline claim: variable flow cuts cooling energy vs the
	// worst-case flow rate, especially for low-utilization workloads.
	cfgVar := quickCfg(t, LiquidVar, sched.TALB, "gzip")
	cfgVar.Duration = 30
	rVar, err := Run(context.Background(), cfgVar)
	if err != nil {
		t.Fatal(err)
	}
	cfgMax := quickCfg(t, LiquidMax, sched.TALB, "gzip")
	cfgMax.Duration = 30
	rMax, err := Run(context.Background(), cfgMax)
	if err != nil {
		t.Fatal(err)
	}
	if rVar.PumpEnergy >= rMax.PumpEnergy {
		t.Errorf("variable flow pump energy %v not below max %v",
			rVar.PumpEnergy, rMax.PumpEnergy)
	}
}

func TestVarMaintainsTarget(t *testing.T) {
	cfg := quickCfg(t, LiquidVar, sched.TALB, "Web-high")
	cfg.Duration = 30
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The controller guarantees operation below the target temperature
	// whenever maximum flow can achieve it; measure the feasibility
	// bound with a LiquidMax run and allow a small transient epsilon.
	cfgMax := cfg
	cfgMax.Cooling = LiquidMax
	rMax, err := Run(context.Background(), cfgMax)
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Max(float64(controller.TargetTemp), rMax.MaxTemp) + 1.0
	if r.MaxTemp > bound {
		t.Errorf("Tmax reached %v °C under variable flow (target %v, max-flow bound %v)",
			r.MaxTemp, controller.TargetTemp, rMax.MaxTemp)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := quickCfg(t, LiquidVar, sched.TALB, "Web-med")
	r1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Completed != r2.Completed || r1.ChipEnergy != r2.ChipEnergy ||
		r1.MaxTemp != r2.MaxTemp {
		t.Errorf("runs differ: %+v vs %+v", r1.Report, r2.Report)
	}
}

func TestMigrationPolicyMigratesWhenHot(t *testing.T) {
	// Air-cooled Web-high gets hot enough to trigger reactive migration.
	cfg := quickCfg(t, Air, sched.Migration, "Web-high")
	cfg.Duration = 20
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxTemp > 85 && r.Migrations == 0 {
		t.Errorf("system reached %v °C but no migrations", r.MaxTemp)
	}
}

func TestLBNeverMigrates(t *testing.T) {
	cfg := quickCfg(t, Air, sched.LB, "Web-high")
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Migrations != 0 {
		t.Errorf("LB migrated %d times", r.Migrations)
	}
}

func TestFourLayerRuns(t *testing.T) {
	cfg := onStack(t, quickCfg(t, LiquidVar, sched.TALB, "Web-med"), 4, 12, 10)
	cfg.Duration = 6
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples == 0 {
		t.Error("no samples")
	}
}

func TestUtilScheduleApplied(t *testing.T) {
	cfg := quickCfg(t, LiquidVar, sched.TALB, "Web-high")
	cfg.Duration = 20
	// Night shift: almost no load.
	cfg.UtilSchedule = func(t units.Second) float64 { return 0.05 }
	rNight, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UtilSchedule = nil
	rDay, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rNight.Completed >= rDay.Completed {
		t.Errorf("night completed %d ≥ day %d", rNight.Completed, rDay.Completed)
	}
}

func TestConfigValidation(t *testing.T) {
	good := quickCfg(t, LiquidVar, sched.TALB, "Web-med")
	air := quickCfg(t, Air, sched.TALB, "Web-med")
	for name, edit := range map[string]func(*Config){
		"no platform":         func(c *Config) { c.Platform = nil },
		"liquid on air stack": func(c *Config) { c.Platform = air.Platform },
		"air on liquid stack": func(c *Config) { c.Cooling = Air },
		"zero tick":           func(c *Config) { c.Tick = 0 },
		"negative duration":   func(c *Config) { c.Duration = -1 },
	} {
		cfg := good
		edit(&cfg)
		if _, err := New(context.Background(), cfg); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestSharedLUTMatchesInternal(t *testing.T) {
	// A platform whose LUT and weight table another run already built
	// must give the same run as a fresh platform that builds them.
	cfg := quickCfg(t, LiquidVar, sched.TALB, "Web-med")
	if _, err := New(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Platform, err = platform.New(cfg.Platform.Spec()); err != nil {
		t.Fatal(err)
	}
	cold, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ChipEnergy != cold.ChipEnergy || warm.PumpEnergy != cold.PumpEnergy {
		t.Errorf("shared LUT changed results: %v/%v vs %v/%v",
			warm.ChipEnergy, warm.PumpEnergy, cold.ChipEnergy, cold.PumpEnergy)
	}
}

func TestCoolingModeString(t *testing.T) {
	for m, want := range map[CoolingMode]string{Air: "Air", LiquidMax: "Max", LiquidVar: "Var"} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestFullLoadPowersShape(t *testing.T) {
	cfg := quickCfg(t, LiquidVar, sched.TALB, "Web-med")
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := platform.FullLoadPowers(s.Stack)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl) != len(s.Stack.Layers) {
		t.Fatalf("layer count mismatch")
	}
	total := 0.0
	for _, layer := range fl {
		for _, p := range layer {
			if p < 0 {
				t.Error("negative block power")
			}
			total += p
		}
	}
	// Full load with leakage at 80 °C should exceed the no-leakage 39 W.
	if total < 39 || total > 70 {
		t.Errorf("full-load total %v W outside plausible band", total)
	}
}
