package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/benchutil"
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
	slow := testing.BenchmarkResult{N: 1, T: 1200 * time.Millisecond, MemAllocs: 4, MemBytes: 64}
	for _, c := range []struct {
		name          string
		minIter       int
		runs          []testing.BenchmarkResult // per call; the last repeats
		wantRuns      int
		wantN         int
		wantNsPerOp   int64
		wantAllocsPer int64
	}{
		// A >1 s op: testing.Benchmark times one op per run, so three
		// runs are summed.
		{"slow", 3, []testing.BenchmarkResult{slow}, 3, 3, 1.2e9, 4},
		// A fast op already times many ops in one run.
		{"fast", 3, []testing.BenchmarkResult{{N: 5000, T: time.Second, MemAllocs: 0}},
			1, 5000, 2e5, 0},
		// No minimum: one run, as a plain testing.Benchmark.
		{"none", 0, []testing.BenchmarkResult{{N: 1, T: 2 * time.Second}},
			1, 1, 2e9, 0},
		// A failed body reports 0 ops: stop instead of looping forever.
		{"failed", 3, []testing.BenchmarkResult{{}}, 1, 0, 0, 0},
		// A run that fails after a good one fails the whole measurement.
		{"failed later", 3, []testing.BenchmarkResult{slow, {}}, 2, 0, 0, 0},
	} {
		runs := 0
		r := benchAtLeast(c.minIter, func() testing.BenchmarkResult {
			runs++
			return c.runs[min(runs, len(c.runs))-1]
		})
		if runs != c.wantRuns || r.N != c.wantN || r.NsPerOp() != c.wantNsPerOp || r.AllocsPerOp() != c.wantAllocsPer {
			t.Errorf("%s: %d runs, N=%d, %d ns/op, %d allocs/op; want %d, %d, %d, %d", c.name,
				runs, r.N, r.NsPerOp(), r.AllocsPerOp(), c.wantRuns, c.wantN, c.wantNsPerOp, c.wantAllocsPer)
		}
	}
}

// TestRun: a failing entry fails the run and leaves no file, at an
// explicit path and at the per-day default; a good run writes one result
// per entry in order, each over at least MinIters ops; and that same-day
// snapshot is then refused before anything runs.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	ran := false
	fails := []benchutil.Bench{
		{Name: "Fails", Run: func(b *testing.B) { b.Fatal("boom") }},
		{Name: "Never", Run: func(*testing.B) { ran = true }},
	}
	for _, out := range []string{"x.json", ""} {
		if _, err := run(out, fails); err == nil {
			t.Errorf("run(%q) of a failing benchmark: want an error", out)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 || ran {
		t.Fatalf("failed runs left %v (%v), ran past the failure: %v", ents, err, ran)
	}

	nop := func(*testing.B) {}
	path, err := run("", []benchutil.Bench{{Name: "A", Run: nop}, {Name: "B", Run: nop, MinIters: 5}})
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if buf, err := os.ReadFile(path); err != nil || json.Unmarshal(buf, &snap) != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if b := snap.Benchmarks; len(b) != 2 || b[0].Name != "A" || b[1].Name != "B" || b[1].Iterations < 5 {
		t.Fatalf("benchmarks = %+v", b)
	}
	if _, err := run("", []benchutil.Bench{{Name: "C", Run: func(*testing.B) { ran = true }}}); err == nil || ran {
		t.Fatalf("existing same-day snapshot: err = %v, ran = %v; want a refusal before running", err, ran)
	}
}
