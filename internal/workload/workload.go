// Package workload reproduces Table II of the paper: the characteristics
// of the eight real-life benchmarks measured on an UltraSPARC T1 (average
// utilization, L2 instruction/data misses and floating-point instructions
// per 100 k instructions), and a deterministic synthetic thread-trace
// generator parameterized by them.
//
// The paper samples per-hardware-thread utilization with mpstat and thread
// lengths with DTrace, reporting lengths from a few to several hundred
// milliseconds [8]. The generator reproduces those statistics: thread
// service times are drawn from a bounded lognormal-like distribution and
// the arrival process is modulated slowly over time so the maximum
// temperature trace carries the serial correlation the ARMA predictor
// relies on.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/units"
)

// Benchmark is one Table II row. Misses and FP counts are per 100 k
// instructions.
type Benchmark struct {
	ID      int
	Name    string
	AvgUtil float64 // percent
	L2IMiss float64
	L2DMiss float64
	FPInstr float64
}

// TableII lists the paper's eight benchmarks verbatim.
var TableII = []Benchmark{
	{1, "Web-med", 53.12, 12.9, 167.7, 31.2},
	{2, "Web-high", 92.87, 67.6, 288.7, 31.2},
	{3, "Database", 17.75, 6.5, 102.3, 5.9},
	{4, "Web&DB", 75.12, 21.5, 115.3, 24.1},
	{5, "gcc", 15.25, 31.7, 96.2, 18.1},
	{6, "gzip", 9, 2, 57, 0.2},
	{7, "MPlayer", 6.5, 9.6, 136, 1},
	{8, "MPlayer&Web", 26.62, 9.1, 66.8, 29.9},
}

// ByName returns the Table II benchmark with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range TableII {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// maxL2Miss is the largest combined miss rate in Table II (Web-high),
// used to normalize memory activity.
const maxL2Miss = 67.6 + 288.7

// MemActivity maps the benchmark's combined L2 miss rate to [0,1]; the
// power model scales cache, crossbar and memory-controller power with it.
func (b Benchmark) MemActivity() float64 {
	return (b.L2IMiss + b.L2DMiss) / maxL2Miss
}

// UtilFraction returns the average utilization as a fraction.
func (b Benchmark) UtilFraction() float64 { return b.AvgUtil / 100 }

// Thread is one schedulable unit of work.
type Thread struct {
	ID      int64
	Arrival units.Second
	// Length is the total service time (continuous execution time).
	Length units.Second
	// Remaining is maintained by the scheduler.
	Remaining units.Second
	// Migrations counts thread moves while running (for the migration
	// overhead accounting).
	Migrations int
}

// Thread length distribution bounds (paper [8]: "a few to several hundred
// milliseconds").
const (
	MinThreadLen units.Second = 0.005
	MaxThreadLen units.Second = 0.400
	// meanThreadLen is the mean of the bounded draw below (~60 ms).
	meanThreadLen = 0.060
)

// Generator produces a deterministic thread arrival trace targeting a
// benchmark's utilization on a given core count.
type Generator struct {
	Bench Benchmark
	Cores int
	rng   *rand.Rand
	// Modulation parameters: utilization oscillates slowly around the
	// Table II average so the controller sees load dynamics.
	ModDepth  float64      // relative amplitude, default 0.35
	ModPeriod units.Second // default 60 s
	// UtilScale rescales the average utilization (day/night experiments).
	UtilScale float64

	nextID   int64
	nextArr  units.Second
	nextReal bool // whether nextArr is an arrival (vs a zero-load recheck)
	started  bool
	buf      []Thread // reused Arrivals result buffer
}

// NewGenerator returns a generator with the default modulation, seeded
// deterministically.
func NewGenerator(b Benchmark, cores int, seed int64) *Generator {
	g := &Generator{
		Bench:     b,
		Cores:     cores,
		rng:       rand.New(rand.NewSource(seed)),
		ModDepth:  0.35,
		ModPeriod: 60,
		UtilScale: 1,
	}
	return g
}

// utilAt returns the instantaneous target utilization fraction.
func (g *Generator) utilAt(t units.Second) float64 {
	u := g.Bench.UtilFraction() * g.UtilScale
	if g.ModDepth > 0 && g.ModPeriod > 0 {
		u *= 1 + g.ModDepth*math.Sin(2*math.Pi*float64(t)/float64(g.ModPeriod))
	}
	return units.Clamp(u, 0, 0.98)
}

// drawLength samples a bounded, right-skewed service time.
func (g *Generator) drawLength() units.Second {
	// Lognormal-ish: exp of a normal, clamped to the paper's range.
	v := meanThreadLen * math.Exp(0.8*g.rng.NormFloat64()-0.32)
	return units.Second(units.Clamp(v, float64(MinThreadLen), float64(MaxThreadLen)))
}

// scheduleNext draws the inter-arrival gap after time t. The arrival rate
// matching utilization u over c cores with mean service s is u·c/s.
func (g *Generator) scheduleNext(t units.Second) {
	u := g.utilAt(t)
	if u <= 0 {
		// No load: re-check in 50 ms without emitting.
		g.nextArr = t + 0.05
		g.nextReal = false
		return
	}
	rate := u * float64(g.Cores) / meanThreadLen
	gap := g.rng.ExpFloat64() / rate
	g.nextArr = t + units.Second(gap)
	g.nextReal = true
}

// Arrivals returns the threads arriving in [from, to), advancing the
// generator. The returned slice reuses a generator-owned buffer — it is
// valid until the next Arrivals call and must be copied to be retained
// (the per-tick loop consumes it immediately, so steady-state ticks
// allocate nothing here).
func (g *Generator) Arrivals(from, to units.Second) []Thread {
	out := g.buf[:0]
	if !g.started {
		// Lazy start so configuration after NewGenerator (UtilScale,
		// modulation) applies from the very first arrival.
		g.scheduleNext(from)
		g.started = true
	}
	for g.nextArr < to {
		if g.nextReal && g.nextArr >= from {
			l := g.drawLength()
			out = append(out, Thread{
				ID:        g.nextID,
				Arrival:   g.nextArr,
				Length:    l,
				Remaining: l,
			})
			g.nextID++
		}
		g.scheduleNext(g.nextArr)
	}
	g.buf = out
	return out
}
