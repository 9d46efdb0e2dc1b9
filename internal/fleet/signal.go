package fleet

import (
	"context"
	"os"
	"time"
)

// SignalAwareTimeout returns the daemons' shutdown context: it expires
// after d, or immediately on a second signal (an impatient operator
// hitting Ctrl-C twice hard-stops the drain).
func SignalAwareTimeout(sigCh <-chan os.Signal, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	go func() {
		select {
		case <-sigCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
