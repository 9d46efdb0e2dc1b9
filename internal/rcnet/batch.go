package rcnet

import (
	"fmt"
	"sync/atomic"

	"repro/internal/units"
)

// NumWidthBuckets is the size of the batch-width histogram: widths 2, 3,
// 4, then 5–8, 9–16, 17–32 and 33+.
const NumWidthBuckets = 7

// widthBucket maps a batch width ≥ 2 to its histogram bucket.
func widthBucket(w int) int {
	switch {
	case w <= 4:
		return w - 2
	case w <= 8:
		return 3
	case w <= 16:
		return 4
	case w <= 32:
		return 5
	default:
		return 6
	}
}

// WidthBucketLabel returns the human-readable range of bucket i ("2",
// "5-8", "33+"), for metrics surfaces.
func WidthBucketLabel(i int) string {
	switch {
	case i < 3:
		return fmt.Sprintf("%d", i+2)
	case i == 3:
		return "5-8"
	case i == 4:
		return "9-16"
	case i == 5:
		return "17-32"
	default:
		return "33+"
	}
}

// BatchCounters accumulates batch-solve statistics across any number of
// concurrently stepping gangs. All methods are safe for concurrent use;
// the zero value is ready.
type BatchCounters struct {
	sweeps  atomic.Int64
	batched atomic.Int64
	widths  [NumWidthBuckets]atomic.Int64
}

// note records one SolveBatch sweep of the given width (≥ 2).
func (c *BatchCounters) note(width int) {
	if c == nil {
		return
	}
	c.sweeps.Add(1)
	c.batched.Add(int64(width))
	c.widths[widthBucket(width)].Add(1)
}

// BatchSnapshot is a point-in-time copy of BatchCounters.
type BatchSnapshot struct {
	// Sweeps is the number of multi-RHS SolveBatch sweeps performed.
	Sweeps int64
	// BatchedSolves is the number of per-model solves served through
	// those sweeps (the sum of their widths).
	BatchedSolves int64
	// Widths is the sweep-width histogram (see WidthBucketLabel).
	Widths [NumWidthBuckets]int64
}

// Snapshot returns a consistent-enough copy for metrics (each counter is
// read atomically; cross-counter skew is at most one in-flight sweep).
func (c *BatchCounters) Snapshot() BatchSnapshot {
	var s BatchSnapshot
	if c == nil {
		return s
	}
	s.Sweeps = c.sweeps.Load()
	s.BatchedSolves = c.batched.Load()
	for i := range s.Widths {
		s.Widths[i] = c.widths[i].Load()
	}
	return s
}

// BatchStepper advances a set of models built on one shared platform in
// lock-step, grouping the per-tick linear solves of models that share a
// factorKey (pump on or off, same dt) into single SolveBatch sweeps:
// the factor's indices and values are streamed once for the whole group.
// Per-model state — temperatures, coolant march, factor caches — stays
// fully isolated; only the leader's numeric factor is shared, and models
// whose key diverges fall back to their own serial Step path,
// bit-identically.
//
// A BatchStepper may be used from one goroutine at a time; distinct
// steppers over distinct models may run concurrently (sharing at most
// the immutable products of one symbolic analysis and the counters).
type BatchStepper struct {
	ctr *BatchCounters

	// Per-call scratch, reused across Steps.
	keys   []factorKey
	order  []int // group-leader model indices, first-seen order
	member [][]int
	free   [][]int // spare member slices for reuse
	widths []int
	xs, bs [][]float64
}

// NewBatchStepper returns a stepper reporting into ctr (nil: no
// counting).
func NewBatchStepper(ctr *BatchCounters) *BatchStepper {
	return &BatchStepper{ctr: ctr}
}

// Widths reports, for each model of the last Step call (by position),
// the width of the solve group it was served in; 1 means a solo solve.
// Valid until the next Step.
func (st *BatchStepper) Widths() []int { return st.widths }

// Step advances every model by dt, batching compatible solves. It is
// equivalent — bit for bit, per model — to calling models[i].Step(dt) in
// order. The first error (lowest model index) aborts the batch after its
// group; models of earlier groups have already advanced, exactly as a
// serial loop would have left them.
func (st *BatchStepper) Step(models []*Model, dt units.Second) error {
	if dt <= 0 {
		return fmt.Errorf("rcnet: non-positive dt %v", dt)
	}
	dtF := float64(dt)
	st.widths = st.widths[:0]
	for range models {
		st.widths = append(st.widths, 1)
	}

	// Prepare every model (coolant march + assembly): value-only work,
	// independent across models.
	for _, m := range models {
		m.prepareStep(dtF)
	}

	// Group by factor key, preserving first-seen order and ascending
	// member order (the serial solve order within each group).
	st.keys = st.keys[:0]
	st.free = append(st.free, st.member...)
	st.member = st.member[:0]
	st.order = st.order[:0]
	for i, m := range models {
		key := m.factorKey(dtF)
		g := -1
		for j, k := range st.keys {
			if k == key {
				g = j
				break
			}
		}
		if g < 0 {
			g = len(st.keys)
			st.keys = append(st.keys, key)
			var mem []int
			if n := len(st.free); n > 0 {
				mem = st.free[n-1][:0]
				st.free = st.free[:n-1]
			}
			st.member = append(st.member, mem)
			st.order = append(st.order, i)
		}
		st.member[g] = append(st.member[g], i)
	}

	for g := range st.keys {
		if err := st.solveGroup(models, st.member[g], dtF); err != nil {
			return err
		}
	}
	return nil
}

// solveGroup solves one key group. The leader (lowest model index)
// acquires the factor through its own cache — identical cache traffic to
// its serial Step — and the group sweeps once through it.
func (st *BatchStepper) solveGroup(models []*Model, mem []int, dtF float64) error {
	lead := models[mem[0]]
	num, err := lead.factorFor(dtF)
	if err != nil {
		return fmt.Errorf("rcnet: transient solve: %w", err)
	}
	if len(mem) == 1 {
		num.Solve(lead.temp, lead.rhs)
		return nil
	}
	st.xs = st.xs[:0]
	st.bs = st.bs[:0]
	for _, i := range mem {
		st.xs = append(st.xs, models[i].temp)
		st.bs = append(st.bs, models[i].rhs)
	}
	num.SolveBatch(st.xs, st.bs)
	st.ctr.note(len(mem))
	for _, i := range mem {
		st.widths[i] = len(mem)
	}
	return nil
}
