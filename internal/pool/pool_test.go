package pool

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/leakcheck"
)

// TestRunPoolInline: the calling goroutine is the pool's last worker, so with
// one worker or fewer — zero and negative counts included — the pool is a loop
// on that goroutine, in index order, that checks ctx before each item.
func TestRunPoolInline(t *testing.T) {
	leakcheck.Goroutines(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	caller := leakcheck.GoID()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		before := runtime.NumGoroutine()
		err := Run(context.Background(), workers, 5, func(i int) {
			if id := leakcheck.GoID(); id != caller || runtime.NumGoroutine() != before {
				t.Errorf("workers=%d: item %d ran on goroutine %s of %d, want the caller's %s of %d",
					workers, i, id, runtime.NumGoroutine(), caller, before)
			}
			order = append(order, i)
		})
		if err != nil || !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
			t.Errorf("workers=%d, live ctx: ran %v with error %v, want every item in order", workers, order, err)
		}

		err = Run(cancelled, workers, 5, func(i int) { t.Errorf("workers=%d: item %d ran under a cancelled ctx", workers, i) })
		if err != context.Canceled {
			t.Errorf("workers=%d, cancelled ctx: error = %v, want context.Canceled", workers, err)
		}

		// Cancelled mid-run: the item in hand completes, the next is not started.
		ctx, stop := context.WithCancel(context.Background())
		order = order[:0]
		err = Run(ctx, workers, 5, func(i int) {
			order = append(order, i)
			if i == 1 {
				stop()
			}
		})
		if err != context.Canceled || !slices.Equal(order, []int{0, 1}) {
			t.Errorf("workers=%d, cancelled at item 1: ran %v with error %v, want [0 1] and context.Canceled", workers, order, err)
		}
	}

	// The pooled form runs every item exactly once, and also hands nothing
	// out under a cancelled ctx; a single item never needs a second goroutine.
	var ran [64]atomic.Int32
	if err := Run(context.Background(), 4, len(ran), func(i int) { ran[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Errorf("pooled: item %d ran %d times", i, n)
		}
	}
	if err := Run(cancelled, 4, 8, func(i int) { t.Errorf("pooled: item %d ran under a cancelled ctx", i) }); err != context.Canceled {
		t.Errorf("pooled, cancelled ctx: error = %v, want context.Canceled", err)
	}
	if err := Run(context.Background(), 4, 1, func(int) {
		if id := leakcheck.GoID(); id != caller {
			t.Errorf("a single item ran on goroutine %s, want the caller's %s", id, caller)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
