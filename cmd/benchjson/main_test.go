package main

import (
	"testing"
	"time"
)

func TestModelName(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"processor\t: 0\nvendor_id\t: GenuineIntel\nmodel\t\t: 85\nmodel name\t: Intel(R) Xeon(R) Processor\nstepping\t: 7\n" +
			"processor\t: 1\nmodel name\t: Other\n", "Intel(R) Xeon(R) Processor"},
		{"processor\t: 0\nmodel\t\t: 85\n", ""},
		{"", ""},
	} {
		if got := modelName(c.in); got != c.want {
			t.Errorf("modelName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBenchAtLeast(t *testing.T) {
	for _, c := range []struct {
		name          string
		minIter       int
		perRun        testing.BenchmarkResult
		wantRuns      int
		wantN         int
		wantNsPerOp   int64
		wantAllocsPer int64
	}{
		// A >1 s op: testing.Benchmark times one op per run, so three
		// runs are summed.
		{"slow", minPaperIters, testing.BenchmarkResult{N: 1, T: 1200 * time.Millisecond, MemAllocs: 4, MemBytes: 64},
			3, 3, 1.2e9, 4},
		// A fast op already times many ops in one run.
		{"fast", minPaperIters, testing.BenchmarkResult{N: 5000, T: time.Second, MemAllocs: 0},
			1, 5000, 2e5, 0},
		// No minimum: one run, as a plain testing.Benchmark.
		{"none", 0, testing.BenchmarkResult{N: 1, T: 2 * time.Second},
			1, 1, 2e9, 0},
		// A failed body reports 0 ops: stop instead of looping forever.
		{"failed", minPaperIters, testing.BenchmarkResult{},
			1, 0, 0, 0},
	} {
		runs := 0
		r := benchAtLeast(c.minIter, func() testing.BenchmarkResult {
			runs++
			return c.perRun
		})
		if runs != c.wantRuns || r.N != c.wantN || r.NsPerOp() != c.wantNsPerOp || r.AllocsPerOp() != c.wantAllocsPer {
			t.Errorf("%s: %d runs, N=%d, %d ns/op, %d allocs/op; want %d, %d, %d, %d", c.name,
				runs, r.N, r.NsPerOp(), r.AllocsPerOp(), c.wantRuns, c.wantN, c.wantNsPerOp, c.wantAllocsPer)
		}
	}
}
