package main

import (
	"context"
	"fmt"
	"time"

	"repro/coolsim"
	"repro/internal/mat"
	"repro/internal/platform"
	"repro/internal/rcnet"
	"repro/internal/units"
)

// probeShape names what a traced run probes layer by layer: the
// workload's own platform shape, which of its artifacts the workload
// builds, and one of the workload's scenarios for the sim layer.
type probeShape struct {
	layers, nx, ny int
	liquid         bool
	lut, weights   bool // the workload's set-up builds these
	steady         bool // the workload's set-up runs SteadyState
	sc             coolsim.Scenario
}

// probeReps is how many rounds the probe times; the metrics are medians.
// Forty rounds let pairedSelf resolve a self time that makes the parent
// slower in two rounds of three.
const probeReps = 40

// probeLayers times the platform, sim, rcnet and mat layers on the
// workload's own platform shape through their public functions, one
// span per call, and fills the platform.*, sim.*, rcnet.* and mat.*
// metrics. pc is the workload's warm platform cache for ps.sc.
//
// One round times a sim tick, an rcnet step, an LDLᵀ solve and an
// 8-wide batched solve back to back. The rcnet model is a second model
// of the session's system: before each step it takes the flow and chip
// power of the tick just run. The self times — tick minus step, step minus solve —
// are medians of the per-round differences (pairedSelf); one that does
// not stand out of the host's noise reads 0 and is named in the output.
func probeLayers(ctx context.Context, tr *tracer, ps probeShape, pc *coolsim.PlatformCache, m map[string]float64) error {
	root := tr.begin("probe", 0, -1)
	defer tr.end(root)
	timed := func(name string, fn func() error) (float64, error) {
		id := tr.begin(name, root, -1)
		t := time.Now()
		err := fn()
		d := time.Since(t)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return float64(d) / 1e6, nil
	}

	// platform: the cold builds, on a fresh platform of the shape.
	spec := platform.Spec{Layers: ps.layers, Liquid: ps.liquid, GridNX: ps.nx, GridNY: ps.ny,
		RC: rcnet.DefaultConfig()}.Canonical()
	p, err := platform.New(spec)
	if err != nil {
		return err
	}
	if m["platform.symbolic_ms"], err = timed("platform.symbolic", func() error {
		return p.Warm(ctx, false, false)
	}); err != nil {
		return err
	}
	if ps.lut {
		if m["platform.lut_ms"], err = timed("platform.lut", func() error {
			_, err := p.LUT(ctx)
			return err
		}); err != nil {
			return err
		}
	}
	if ps.weights {
		if m["platform.weights_ms"], err = timed("platform.weights", func() error {
			_, err := p.Weights(ctx)
			return err
		}); err != nil {
			return err
		}
	}

	// sim: sessions of the workload's scenario, long enough for the
	// rounds, on the workload's warm cache.
	sc := ps.sc
	sc.Duration = probeReps * 0.1 // a 100 ms tick per round; warm-up covers the first Step
	var news []float64
	var ss *coolsim.Session
	for range 3 {
		ms, err := timed("sim.new", func() error {
			ss, err = coolsim.NewSession(ctx, sc, coolsim.WithPlatformCache(pc))
			return err
		})
		if err != nil {
			return err
		}
		news = append(news, ms)
	}
	m["sim.new_ms"] = median(news)
	smp, err := ss.Step() // pays the factorization
	if err != nil {
		return err
	}

	// rcnet: a model of the platform, driven like the session's.
	model, err := p.NewModel(ctx)
	if err != nil {
		return err
	}
	follow, err := sessionLoad(ctx, p, model, ps.liquid)
	if err != nil {
		return err
	}
	if err := follow(smp); err != nil {
		return err
	}
	const dt = 0.1
	if err := model.Step(dt); err != nil { // pays the factorization
		return err
	}

	// mat: the model's own system matrix, analyzed and factorized afresh.
	a, err := model.SystemCSR(dt)
	if err != nil {
		return err
	}
	var symb *mat.LDLSymbolic
	if m["mat.analyze_ms"], err = timed("mat.analyze", func() error {
		symb, err = mat.AnalyzeLDL(a, mat.OrderAuto)
		return err
	}); err != nil {
		return err
	}
	var num *mat.LDLNumeric
	if m["mat.factor_ms"], err = timed("mat.factor", func() error {
		num, err = symb.Factorize(a, nil)
		return err
	}); err != nil {
		return err
	}
	n := symb.N()
	xs, bs := make([][]float64, 8), make([][]float64, 8)
	for r := range bs {
		xs[r], bs[r] = make([]float64, n), make([]float64, n)
		for i := range bs[r] {
			bs[r][i] = 1 + float64((i+r)%7)
		}
	}

	var ticks, steps, solves, batches []float64
	for range probeReps {
		ms, err := timed("sim.tick", func() (err error) { smp, err = ss.Step(); return err })
		if err != nil {
			return err
		}
		ticks = append(ticks, ms)
		if err := follow(smp); err != nil {
			return err
		}
		if ms, err = timed("rcnet.step", func() error { return model.Step(dt) }); err != nil {
			return err
		}
		steps = append(steps, ms)
		ms, _ = timed("mat.solve", func() error { num.Solve(xs[0], bs[0]); return nil })
		solves = append(solves, ms)
		ms, _ = timed("mat.solve_batch8", func() error { num.SolveBatch(xs, bs); return nil })
		batches = append(batches, ms)
	}
	selfUS := func(name string, parent, child []float64) {
		self, ok := pairedSelf(parent, child)
		if !ok {
			fmt.Printf("# %s not resolved: median self %.4g us is within the host's noise; reported as 0\n",
				name, 1e3*self)
			return
		}
		m[name] = 1e3 * self
	}
	selfUS("sim.tick_us", ticks, steps)    // self: tick minus its rcnet step
	selfUS("rcnet.step_us", steps, solves) // self: step minus its solve
	m["rcnet.factorizations"] = float64(model.Factorizations())
	if ps.steady {
		if m["rcnet.steady_ms"], err = timed("rcnet.steady", model.SteadyState); err != nil {
			return err
		}
	}
	m["mat.solve_us"] = 1e3 * median(solves)
	m["mat.solve_batch_us_per_rhs"] = 1e3 * median(batches) / 8
	nnzL := symb.NNZL()
	m["mat.nnz_l"] = float64(nnzL)
	m["mat.supernodes"] = float64(symb.Supernodes())
	m["mat.mean_panel_width"] = symb.MeanPanelWidth()
	m["mat.solve_flops"], m["mat.solve_bytes"] = solveCost(n, nnzL, symb.PanelNNZ(), symb.Supernodal())
	fmt.Printf("# probe totals: sim.tick %.4g ms, rcnet.step %.4g ms, mat.solve %.4g ms\n",
		median(ticks), median(steps), median(solves))
	return nil
}

// sessionLoad returns a function that drives model at a session's load:
// the flow the sample's tick delivered, and the platform's full-load
// power map scaled to the sample's chip power. A flow the model has not
// factorized for costs it a factorization, as it costs the session.
func sessionLoad(ctx context.Context, p *platform.Platform, model *rcnet.Model, liquid bool) (func(*coolsim.Sample) error, error) {
	full, err := p.FullLoadPowers(ctx)
	if err != nil {
		return nil, err
	}
	var total float64
	scaled := make([][]float64, len(full))
	for li, bp := range full {
		scaled[li] = make([]float64, len(bp))
		for _, w := range bp {
			total += w
		}
	}
	return func(smp *coolsim.Sample) error {
		for li, bp := range full {
			for i, w := range bp {
				scaled[li][i] = w * smp.ChipPowerW / total
			}
			if err := model.SetLayerPower(li, scaled[li]); err != nil {
				return err
			}
		}
		if !liquid {
			return nil
		}
		return model.SetFlow(units.LitersPerMinute(smp.FlowMLMin / 1000))
	}, nil
}

// solveCost computes, from the factor's size, the work of one LDLᵀ
// solve: a multiply-add per stored entry of L in each of the forward
// and backward sweeps plus a division per diagonal entry, and the bytes
// the sweeps read if every stored value (and, for the scalar layout,
// its 8-byte row index) is read once per sweep and the n-vectors
// (permutation, right-hand side, solution, diagonal) once. These are
// computed, not measured: caches are ignored.
func solveCost(n, nnzL, panelNNZ int, supernodal bool) (flops, bytes float64) {
	flops = 4*float64(nnzL) + float64(n)
	if supernodal {
		bytes = 2 * 8 * float64(panelNNZ)
	} else {
		bytes = 2 * 16 * float64(nnzL)
	}
	return flops, bytes + 4*8*float64(n)
}

// reportRatios fills the sim and controller metrics read off the
// workload's own reports.
func reportRatios(m map[string]float64, reps []*coolsim.Report) {
	var solves, batched, ticks, refits float64
	for _, r := range reps {
		solves += float64(r.ThermalSolves)
		batched += float64(r.BatchedSolves)
		ticks += float64(r.BaseTicks)
		refits += float64(r.Refits)
	}
	if solves > 0 {
		m["sim.batched_frac"] = batched / solves
	}
	if ticks > 0 {
		m["sim.solves_per_tick"] = solves / ticks
	}
	if len(reps) > 0 {
		m["controller.refits_per_run"] = refits / float64(len(reps))
	}
}
