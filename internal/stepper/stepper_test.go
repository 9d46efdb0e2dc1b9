package stepper

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/units"
)

// fakePhases is a scripted simulator: per-tick events come from a queue,
// estimates from a queue, and every call is appended to a trace so the
// tests can assert the exact sequencing contract.
type fakePhases struct {
	t         *testing.T
	tick      units.Second
	remaining int
	pending   int
	heldTmax  float64
	margin    float64
	events    []Events  // per RunTick, consumed in order
	estimates []float64 // per SolveThermalEstimate, consumed in order
	trace     []string
	decides   []bool
}

func newFake(t *testing.T) *fakePhases {
	return &fakePhases{t: t, tick: 0.1, remaining: 1 << 20, heldTmax: 70, margin: 10}
}

func (f *fakePhases) log(format string, args ...any) {
	f.trace = append(f.trace, fmt.Sprintf(format, args...))
}

func (f *fakePhases) BaseTick() units.Second    { return f.tick }
func (f *fakePhases) RemainingTicks() int       { return f.remaining }
func (f *fakePhases) PendingTicks() int         { return f.pending }
func (f *fakePhases) HeldTmaxC() float64        { return f.heldTmax }
func (f *fakePhases) ThresholdMarginC() float64 { return f.margin }

func (f *fakePhases) RunTick(decide bool) (Events, error) {
	f.decides = append(f.decides, decide)
	var ev Events
	if len(f.events) > 0 {
		ev = f.events[0]
		f.events = f.events[1:]
	}
	f.pending++
	f.remaining--
	f.log("run")
	return ev, nil
}

func (f *fakePhases) PushFlow() error { f.log("pushflow"); return nil }

func (f *fakePhases) InstallTickPower(i int) error { f.log("tickpower(%d)", i); return nil }

func (f *fakePhases) InstallMeanPower(n int) error { f.log("meanpower(%d)", n); return nil }

func (f *fakePhases) SaveThermal()    { f.log("save") }
func (f *fakePhases) RestoreThermal() { f.log("restore") }

func (f *fakePhases) SolveThermal(dt units.Second) error {
	f.log("solve(%.1f)", float64(dt))
	return nil
}

func (f *fakePhases) SolveThermalEstimate(dt units.Second) (float64, error) {
	est := 0.0
	if len(f.estimates) > 0 {
		est = f.estimates[0]
		f.estimates = f.estimates[1:]
	}
	f.log("estimate(%.1f)=%.3f", float64(dt), est)
	return est, nil
}

func (f *fakePhases) FinalizeExact(i int) error { f.log("exact(%d)", i); return nil }

func (f *fakePhases) FinalizeInterpolated(n int) error { f.log("interp(%d)", n); return nil }

func (f *fakePhases) CompleteMacro(n int) error {
	if n > f.pending {
		return fmt.Errorf("complete %d of %d pending", n, f.pending)
	}
	f.pending -= n
	f.log("complete(%d)", n)
	return nil
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", Fixed, true}, {"fixed", Fixed, true}, {"adaptive", Adaptive, true},
		{"bogus", 0, false},
	} {
		k, err := ParseKind(tc.in)
		if (err == nil) != tc.ok || (tc.ok && k != tc.want) {
			t.Errorf("ParseKind(%q) = %v, %v", tc.in, k, err)
		}
	}
}

func TestConfigMaxTicks(t *testing.T) {
	if n := (Config{}).MaxTicks(0.1); n != 16 {
		t.Errorf("default MaxTicks at 100 ms tick = %d, want 16", n)
	}
	if n := (Config{MaxStep: 0.35}).MaxTicks(0.1); n != 3 {
		t.Errorf("MaxTicks(0.35s/0.1s) = %d, want 3", n)
	}
}

// TestFixedSequence pins the fixed engine's per-tick call order — the
// exact order of the pre-stepper monolithic loop.
func TestFixedSequence(t *testing.T) {
	f := newFake(t)
	e := New(Config{})
	if err := e.Advance(f); err != nil {
		t.Fatal(err)
	}
	want := []string{"run", "pushflow", "tickpower(0)", "solve(0.1)", "exact(0)", "complete(1)"}
	if !reflect.DeepEqual(f.trace, want) {
		t.Errorf("fixed sequence = %v, want %v", f.trace, want)
	}
	c := e.Counters()
	if c.BaseTicks != 1 || c.Solves != 1 || c.MacroSteps != 0 {
		t.Errorf("fixed counters = %+v", c)
	}
}

// TestControlPeriod: decide fires every ControlEvery ticks, starting at
// the first.
func TestControlPeriod(t *testing.T) {
	f := newFake(t)
	e := New(Config{ControlEvery: 3})
	for i := 0; i < 6; i++ {
		if err := e.Advance(f); err != nil {
			t.Fatal(err)
		}
		f.pending = 0 // emitted
	}
	want := []bool{true, false, false, true, false, false}
	if !reflect.DeepEqual(f.decides, want) {
		t.Errorf("decide pattern = %v, want %v", f.decides, want)
	}
}

// advanceEmitting drives one Advance and simulates the simulator popping
// every completed tick afterwards.
func advanceEmitting(t *testing.T, e Engine, f *fakePhases) {
	t.Helper()
	if err := e.Advance(f); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveGrowth: with quiet events and tiny estimates the interval
// lengths double 1, 2, 4, ... up to the MaxStep cap, solving each
// interval once (with the step-doubling estimate for multi-tick ones).
func TestAdaptiveGrowth(t *testing.T) {
	f := newFake(t)
	e := New(Config{Kind: Adaptive, MaxStep: 0.8}) // cap: 8 ticks
	ticksPerAdvance := []int{}
	for i := 0; i < 6; i++ {
		before := len(f.decides)
		advanceEmitting(t, e, f)
		ticksPerAdvance = append(ticksPerAdvance, len(f.decides)-before)
	}
	want := []int{1, 2, 4, 8, 8, 8}
	if !reflect.DeepEqual(ticksPerAdvance, want) {
		t.Errorf("interval lengths = %v, want %v", ticksPerAdvance, want)
	}
	c := e.Counters()
	if c.BaseTicks != 31 || c.MacroTicks != 30 || c.MacroSteps != 5 || c.Refinements != 0 {
		t.Errorf("counters = %+v", c)
	}
	// 1 base solve + 5 estimated macros × 3 solves.
	if c.Solves != 16 {
		t.Errorf("solves = %d, want 16", c.Solves)
	}
}

// TestAdaptiveRejection: an estimate above tolerance rolls back and
// re-solves every tick of the interval at the base tick, and growth
// restarts from one.
func TestAdaptiveRejection(t *testing.T) {
	f := newFake(t)
	f.estimates = []float64{1.0} // first macro estimate: way out
	e := New(Config{Kind: Adaptive, ToleranceC: 0.05})
	advanceEmitting(t, e, f) // 1 tick
	f.trace = nil
	advanceEmitting(t, e, f) // tries 2, rejects
	want := []string{
		"run", "run", "save", "meanpower(2)", "estimate(0.2)=1.000",
		"restore", "tickpower(0)", "solve(0.1)", "exact(0)",
		"tickpower(1)", "solve(0.1)", "exact(1)", "complete(2)",
	}
	if !reflect.DeepEqual(f.trace, want) {
		t.Errorf("rejection sequence = %v\nwant %v", f.trace, want)
	}
	c := e.Counters()
	if c.Refinements != 1 || c.MacroSteps != 0 {
		t.Errorf("counters = %+v", c)
	}
	// Growth reset: the next interval is a single tick again.
	before := len(f.decides)
	advanceEmitting(t, e, f)
	if n := len(f.decides) - before; n != 1 {
		t.Errorf("interval after rejection ran %d ticks, want 1", n)
	}
}

// TestAdaptiveFlowCarry: a mid-interval flow change closes the interval
// before the changed tick; the carried tick is solved alone in the next
// Advance with the new flow pushed first.
func TestAdaptiveFlowCarry(t *testing.T) {
	f := newFake(t)
	e := New(Config{Kind: Adaptive})
	advanceEmitting(t, e, f) // 1 tick, grows to 2
	advanceEmitting(t, e, f) // 2 ticks, grows to 4
	// Next interval: tick 2 of 4 changes the flow.
	f.events = []Events{{}, {FlowChanged: true}}
	f.trace = nil
	advanceEmitting(t, e, f)
	want := []string{
		"run", "run", // second tick carries
		"save", "tickpower(0)", "solve(0.1)", "exact(0)", "complete(1)",
	}
	if !reflect.DeepEqual(f.trace, want) {
		t.Errorf("flow-close sequence = %v\nwant %v", f.trace, want)
	}
	if f.pending != 1 {
		t.Fatalf("pending after close = %d, want 1 (the carried tick)", f.pending)
	}
	// The carried tick: solved alone, new flow pushed before the solve.
	f.trace = nil
	advanceEmitting(t, e, f)
	want = []string{"pushflow", "save", "tickpower(0)", "solve(0.1)", "exact(0)", "complete(1)"}
	if !reflect.DeepEqual(f.trace, want) {
		t.Errorf("carried-tick sequence = %v\nwant %v", f.trace, want)
	}
}

// TestAdaptiveEarlyCloseBaseTicks: an interval closed early at a
// non-power-of-two length is integrated at the base tick instead of
// estimated at a one-off dt — arbitrary dt keys would churn the
// solver's bounded factor cache.
func TestAdaptiveEarlyCloseBaseTicks(t *testing.T) {
	f := newFake(t)
	e := New(Config{Kind: Adaptive})
	advanceEmitting(t, e, f) // 1 tick, grows to 2
	advanceEmitting(t, e, f) // 2 ticks, grows to 4
	// Next interval: tick 4 of 4 sees a power transient → closes at 3.
	f.events = []Events{{}, {}, {}, {PowerDeltaW: 3}}
	f.trace = nil
	advanceEmitting(t, e, f)
	want := []string{
		"run", "run", "run", "run", // fourth tick carries
		"save",
		"tickpower(0)", "solve(0.1)", "exact(0)",
		"tickpower(1)", "solve(0.1)", "exact(1)",
		"tickpower(2)", "solve(0.1)", "exact(2)",
		"complete(3)",
	}
	if !reflect.DeepEqual(f.trace, want) {
		t.Errorf("early-close sequence = %v\nwant %v", f.trace, want)
	}
	if c := e.Counters(); c.MacroSteps != 1 || c.Refinements != 0 {
		// Only the earlier 2-tick interval was a macro-step.
		t.Errorf("counters = %+v", c)
	}
}

// TestAdaptivePowerTransient: a per-block power delta beyond the band on
// the interval's opening tick pins that interval to one base tick.
func TestAdaptivePowerTransient(t *testing.T) {
	f := newFake(t)
	e := New(Config{Kind: Adaptive})
	advanceEmitting(t, e, f) // grows to 2
	f.events = []Events{{PowerDeltaW: 3}}
	before := len(f.decides)
	advanceEmitting(t, e, f)
	if n := len(f.decides) - before; n != 1 {
		t.Errorf("opening power transient ran %d ticks, want 1", n)
	}
	if c := e.Counters(); c.MacroSteps != 0 {
		t.Errorf("transient tick must not count as a macro-step: %+v", c)
	}
}

// TestAdaptiveThresholdPin: a held temperature within minMarginC of a
// policy threshold keeps the engine at the base tick.
func TestAdaptiveThresholdPin(t *testing.T) {
	f := newFake(t)
	f.margin = 0.2 // inside the default 0.5 °C margin
	e := New(Config{Kind: Adaptive})
	for i := 0; i < 4; i++ {
		before := len(f.decides)
		advanceEmitting(t, e, f)
		if n := len(f.decides) - before; n != 1 {
			t.Fatalf("near-threshold interval ran %d ticks, want 1", n)
		}
	}
}

// TestAdaptiveDriftLimit: a fast measured drift caps interval growth so
// the held temperature cannot cross a threshold mid-step.
func TestAdaptiveDriftLimit(t *testing.T) {
	f := newFake(t)
	f.margin = 2.0
	e := New(Config{Kind: Adaptive})
	// Each interval moves held Tmax by 1 °C per tick: drift ≈ 1.
	for i := 0; i < 5; i++ {
		before := len(f.decides)
		advanceEmitting(t, e, f)
		n := len(f.decides) - before
		f.heldTmax += float64(n) // 1 °C per tick
		// margin 2 at drift ~1 → safe ticks = 2/(2·1) = 1.
		if i > 0 && n > 1 {
			t.Fatalf("interval %d ran %d ticks despite 1 °C/tick drift at 2 °C margin", i, n)
		}
	}
}
