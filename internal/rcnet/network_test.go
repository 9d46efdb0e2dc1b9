package rcnet

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/grid"
	"repro/internal/pump"
	"repro/internal/units"
)

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSystemMatrixFlowIndependent pins the invariant factorKey rests on:
// the transient and steady system matrices are bit-identical at every
// pump setting and at arbitrary off-ladder flows, and only a stopped pump
// (flow 0) gives a different matrix.
func TestSystemMatrixFlowIndependent(t *testing.T) {
	g, err := grid.Build(floorplan.NewT1Stack2(true), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := pump.New(g.Stack.NumCavities())
	if err != nil {
		t.Fatal(err)
	}
	systems := func(flow units.LitersPerMinute) (transient, steady []float64) {
		t.Helper()
		if err := m.SetFlow(flow); err != nil {
			t.Fatal(err)
		}
		a, err := m.SystemCSR(0.1)
		if err != nil {
			t.Fatal(err)
		}
		transient = slices.Clone(a.Val)
		m.buildSystem(0)
		return transient, slices.Clone(m.sys.Val)
	}
	var flows []units.LitersPerMinute
	for s := range pump.NumSettings {
		flows = append(flows, pm.PerCavityFlow(pump.Setting(s)))
	}
	flows = append(flows, 0.0123, 1.7)
	wantT, wantS := systems(flows[0])
	for _, f := range flows[1:] {
		gotT, gotS := systems(f)
		if !sameBits(gotT, wantT) {
			t.Errorf("flow %v: transient system differs from flow %v's", f, flows[0])
		}
		if !sameBits(gotS, wantS) {
			t.Errorf("flow %v: steady system differs from flow %v's", f, flows[0])
		}
	}
	offT, offS := systems(0)
	if sameBits(offT, wantT) || sameBits(offS, wantS) {
		t.Error("flow 0 gives the same system as a running pump")
	}
}

// networkArrays deep-copies every array of a network, for comparing a
// shared network against a fresh assembly.
func networkArrays(net *Network) [][]float64 {
	ints := func(v []int) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = float64(x)
		}
		return out
	}
	return [][]float64{
		ints(net.base.RowPtr), ints(net.base.Col), slices.Clone(net.base.Val),
		slices.Clone(net.baseDiag), slices.Clone(net.capac), slices.Clone(net.convG),
		ints(net.sysDiag), slices.Clone(net.boundG), slices.Clone(net.boundT),
		{net.channelsPerRow, float64(net.n), float64(net.sinkNode)},
	}
}

// sharedNetworkCheck steps 8 models of one network concurrently — each
// with its own flow, power map and dt, all drawing factors from one
// shared cache — then checks that the network still equals a fresh
// assembly bit for bit and that every model matches a standalone model
// (its own network, private factors) driven the same way.
func sharedNetworkCheck(t *testing.T, liquid bool) {
	t.Helper()
	g, err := grid.Build(floorplan.NewT1Stack2(liquid), grid.DefaultParams(12, 10))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	net, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	symb, err := net.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFactors()

	const n, steps = 8, 6
	drive := func(m *Model, i int) error {
		for li, layer := range g.Stack.Layers {
			p := make([]float64, len(layer.Blocks))
			for bi := range p {
				p[bi] = 0.5 + 0.3*float64((i+bi)%7)
			}
			if err := m.SetLayerPower(li, p); err != nil {
				return err
			}
		}
		if liquid {
			// Model 0 keeps the pump off; the rest run at distinct flows.
			if err := m.SetFlow(units.LitersPerMinute(0.1 * float64(i))); err != nil {
				return err
			}
		}
		dt := units.Second(0.1)
		if i%3 == 1 {
			dt = 0.05
		}
		for range steps {
			if err := m.Step(dt); err != nil {
				return err
			}
		}
		return nil
	}

	models := make([]*Model, n)
	for i := range models {
		if models[i], err = net.NewModel(symb, fc); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = drive(m, i)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
	}

	fresh, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := networkArrays(net), networkArrays(fresh)
	for k := range want {
		if !sameBits(got[k], want[k]) {
			t.Fatalf("shared network array %d differs from a fresh assembly after concurrent stepping", k)
		}
	}
	for i, m := range models {
		ref, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := drive(ref, i); err != nil {
			t.Fatal(err)
		}
		if !sameBits(m.Temps(), ref.Temps()) {
			t.Errorf("model %d: temperatures differ from a standalone model's (max |ΔT| %g K)",
				i, maxAbsDiff(m.Temps(), ref.Temps()))
		}
	}
}

func TestSharedNetworkLiquid(t *testing.T) { sharedNetworkCheck(t, true) }

func TestSharedNetworkAir(t *testing.T) { sharedNetworkCheck(t, false) }
