package coolsim

import "repro/internal/rcnet"

// BatchCounters accumulates multi-RHS batch-solve statistics across
// RunMany calls (see WithBatchCounters). The zero value is ready; all
// methods are safe for concurrent use, so one counter set can observe
// any number of in-flight calls — cmd/coolserved keeps a process-wide
// one behind GET /v1/metrics.
type BatchCounters struct {
	inner rcnet.BatchCounters
}

// BatchStats is a point-in-time snapshot of BatchCounters, JSON-ready
// for metrics surfaces.
type BatchStats struct {
	// Sweeps is the number of grouped solves performed: each solved
	// one factorized system against the right-hand sides of every
	// co-scheduled scenario sharing it — one two-lane sweep per pair of
	// right-hand sides on the scalar kernels, one supernodal solve per
	// right-hand side on the panel kernels.
	Sweeps int64 `json:"sweeps"`
	// BatchedSolves is the number of per-scenario solves served through
	// those sweeps (the sum of their widths).
	BatchedSolves int64 `json:"batched_solves"`
	// BatchWidth histograms the sweeps by width — bucket label ("2",
	// "3", "4", "5-8", ..., "33+") to sweep count. Zero buckets are
	// omitted.
	BatchWidth map[string]int64 `json:"batch_width"`
}

// Stats returns a snapshot. Counters are read atomically; cross-counter
// skew is bounded by one in-flight sweep.
func (c *BatchCounters) Stats() BatchStats {
	snap := c.inner.Snapshot()
	s := BatchStats{
		Sweeps:        snap.Sweeps,
		BatchedSolves: snap.BatchedSolves,
		BatchWidth:    make(map[string]int64, rcnet.NumWidthBuckets),
	}
	for i, n := range snap.Widths {
		if n != 0 {
			s.BatchWidth[rcnet.WidthBucketLabel(i)] = n
		}
	}
	return s
}
