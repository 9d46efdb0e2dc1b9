package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-5); got != runtime.NumCPU() {
		t.Errorf("Workers(-5) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		seen := make([]atomic.Int64, n)
		if err := ForEach(context.Background(), workers, n, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	want := errors.New("boom-3")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(context.Background(), workers, 10, func(i int) error {
			ran.Add(1)
			if i == 3 || i == 7 {
				return fmt.Errorf("boom-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, want)
		}
		if ran.Load() != 10 {
			t.Errorf("workers=%d: ran %d jobs, want all 10", workers, ran.Load())
		}
	}
}

func TestForEachDeterministicResults(t *testing.T) {
	// The same job set must fill the same slots regardless of worker count.
	run := func(workers int) []int {
		out := make([]int, 50)
		if err := ForEach(context.Background(), workers, len(out), func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(ctx, workers, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d jobs ran after pre-cancel", workers, ran.Load())
		}
	}
}

func TestForEachCancelMidway(t *testing.T) {
	// Cancel once the fifth job reports in; no new job may start after the
	// in-flight ones, and the returned error must be ctx.Err().
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEach(ctx, workers, 1000, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Errorf("workers=%d: all %d jobs ran despite cancellation", workers, n)
		}
	}
}

func TestForEachCancelOverridesJobError(t *testing.T) {
	// When the context dies, ctx.Err() wins over job errors so callers can
	// distinguish "canceled" from "failed" reliably.
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEach(ctx, 2, 10, func(i int) error {
		cancel()
		return fmt.Errorf("job error %d", i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
