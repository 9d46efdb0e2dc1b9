// Package testutil holds helpers shared by the tests of several packages:
// running a function at a pinned GOMAXPROCS and counting its heap
// allocations there, for the solver kernels that fork their own workers.
package testutil

import "runtime"

// ProcsLevels are the GOMAXPROCS values the subtree-parallel solver
// kernels are pinned at: inline, one fork per task pair, oversubscribed.
var ProcsLevels = []int{1, 2, 8}

// WithProcs runs fn at GOMAXPROCS p and restores the previous value.
func WithProcs(p int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	fn()
}

// AllocsPerRunAt is testing.AllocsPerRun — the integer mean of the
// process-wide heap allocations over runs calls of fn — at GOMAXPROCS p
// instead of AllocsPerRun's pin to 1, so forked solver workers run and
// count. The runtime recycles exited goroutines from per-P free lists;
// warm calls first fill those lists.
func AllocsPerRunAt(p, warm, runs int, fn func()) float64 {
	var n uint64
	WithProcs(p, func() {
		for range warm {
			fn()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&m1)
		n = m1.Mallocs - m0.Mallocs
	})
	return float64(n / uint64(runs))
}
