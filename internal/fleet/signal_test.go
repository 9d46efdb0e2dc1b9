package fleet

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestSignalAwareTimeoutExpires: the shutdown context expires on its own
// after the configured duration.
func TestSignalAwareTimeoutExpires(t *testing.T) {
	sigCh := make(chan os.Signal, 1)
	ctx, cancel := SignalAwareTimeout(sigCh, 50*time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
		t.Fatal("context done immediately")
	default:
	}
	select {
	case <-ctx.Done():
		if ctx.Err() != context.DeadlineExceeded {
			t.Fatalf("err = %v", ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("context never expired")
	}
}

// TestSignalAwareTimeoutSecondSignal: a second operator signal
// hard-stops the drain immediately, well before the timeout.
func TestSignalAwareTimeoutSecondSignal(t *testing.T) {
	sigCh := make(chan os.Signal, 1)
	ctx, cancel := SignalAwareTimeout(sigCh, time.Hour)
	defer cancel()
	sigCh <- os.Interrupt
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not cancel the shutdown context")
	}
}
