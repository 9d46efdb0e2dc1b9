// Package repro reproduces "Energy-Efficient Variable-Flow Liquid Cooling
// in 3D Stacked Architectures" (Coskun, Atienza, Rosing, Brunschwiler,
// Michel — DATE 2010) as a self-contained Go library: a grid-level thermal
// RC simulator for 3D stacks with interlayer microchannel cooling, an
// UltraSPARC-T1-derived power and workload model, a multi-queue scheduler
// with temperature-aware weighted load balancing, and the proactive
// variable-flow pump controller the paper contributes.
//
// The public API is the repro/coolsim package: context-cancellable
// Run/RunMany/RunTraced over plain Scenario values, a Session/Sample
// streaming API yielding allocation-free per-tick observations, functional
// options (WithWorkers, WithGrid, WithTick, WithStepper,
// WithObserver, WithPlatformCache), typed errors, and the offline
// Analysis sweeps.
// Runs sharing a stack shape share their expensive setup — grid, solver
// symbolic analysis, controller LUT and weight tables — through a
// PlatformCache (internal/platform underneath), built once and reused by
// any number of concurrent runs, sessions and service jobs. Everything
// under internal/ is an implementation detail; a CI guard keeps the
// examples on the public surface. cmd/coolserved serves scenarios as an
// HTTP job service (submit, poll, stream NDJSON samples, batches,
// campaigns, warm-start platform cache, /v1/metrics — see SERVICE.md):
// one daemon over one job queue, which runs jobs in-process until other
// coolserved workers register with it.
//
// Time advance is a layered stepping subsystem (internal/stepper): the
// simulator exposes its tick phases and an engine sequences them. The
// default Fixed engine reproduces the paper's 100 ms lock-step loop byte
// for byte (golden-pinned); the Adaptive engine exploits the solver's
// cached per-(flow > 0, dt) factors to advance the thermal network in
// macro-steps of up to 1.6 s through thermally quiet stretches, under a
// step-doubling error estimate, refining to the base tick on power and
// flow transitions and near policy thresholds — per-layer temperatures
// stay within 0.1 °C of the fixed reference while quiet phases run ~5×
// faster (Scenario.Stepping, WithStepper, -stepper).
//
// See README.md for the build/test/bench quickstart, the layout, the
// parallel experiment engine (the -workers flag on cmd/repro and
// cmd/coolsim, experiments.Options.Workers, sim.RunAll) and the thermal
// solver: a cached sparse LDLᵀ direct factorization (symbolic analysis
// once per stack shape, numeric factors once per flow setting and time
// step per stack shape — shared, immutable, by every run on it — and
// two allocation-free triangular sweeps per tick). It is the only
// solver: conjugate gradient survives only as the tests' reference, and a
// test shows every platform's system factorizes with positive pivots. On
// grids where the amalgamated
// elimination tree yields wide enough supernodes (the paper's 115×100
// resolution), the analysis switches the LDLᵀ kernels to supernodal
// dense panels — blocked rank-k factorization updates and dense panel
// triangular sweeps — matching the scalar kernels to 1e-9 entry-wise
// and 1e-6 K end-to-end while roughly doubling factorization and solve
// throughput.
// EXPERIMENTS.md documents the experiment knobs and
// calibration; cmd/benchjson snapshots the substrate benchmark
// registry (internal/benchutil) to BENCH_<date>.json per PR. The
// benchmark harness in bench_test.go regenerates every table and
// figure and runs the registry as BenchmarkSubstrate.
package repro
