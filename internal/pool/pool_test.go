package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

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

// TestBatchErrorRule: when an item fails, the cancellation errors of the items
// abandoned for it are collateral — RunErr reports the lowest-indexed real
// failure with its index, however the workers were scheduled — and an item
// never handed out records nothing.
func TestBatchErrorRule(t *testing.T) {
	leakcheck.Goroutines(t)
	boom := errors.New("boom")
	// Pooled, every item in hand at once: item 3 fails first and cancels the
	// rest, item 1 is a real failure that surfaces only after the cancellation.
	i, err := RunErr(context.Background(), 4, 4, func(ctx context.Context, i int) error {
		switch i {
		case 3:
			return boom
		case 1:
			<-ctx.Done()
			return fmt.Errorf("late: %w", boom)
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if i != 1 || !errors.Is(err, boom) || err.Error() != "late: boom" {
		t.Errorf("pooled: RunErr = (%d, %v), want item 1's late failure", i, err)
	}
	for _, workers := range []int{0, 1, 4} {
		// The failure is reported bare, with its index, and stops the hand-out:
		// inline, the items after it never start.
		var ran atomic.Int64
		i, err := RunErr(context.Background(), workers, 64, func(_ context.Context, i int) error {
			ran.Add(1)
			if i == 2 {
				return boom
			}
			return nil
		})
		if i != 2 || err != boom || (workers <= 1 && ran.Load() != 3) {
			t.Errorf("workers=%d: RunErr = (%d, %v) after %d items, want (2, boom) and, inline, items 3.. abandoned", workers, i, err, ran.Load())
		}
		// Under a live parent an item's own cancellation error is that item's
		// failure, reported like any other.
		i, err = RunErr(context.Background(), workers, 3, func(_ context.Context, i int) error {
			if i == 1 {
				return context.DeadlineExceeded
			}
			return nil
		})
		if i != 1 || err != context.DeadlineExceeded {
			t.Errorf("workers=%d: RunErr = (%d, %v), want item 1's own deadline error", workers, i, err)
		}
		if i, err := RunErr(context.Background(), workers, 3, func(context.Context, int) error { return nil }); i != -1 || err != nil {
			t.Errorf("workers=%d: all items succeeded, RunErr = (%d, %v), want (-1, nil)", workers, i, err)
		}
		if i, err := RunErr(context.Background(), workers, 0, nil); i != -1 || err != nil {
			t.Errorf("workers=%d: empty run, RunErr = (%d, %v), want (-1, nil)", workers, i, err)
		}
	}
}

// TestBatchCancelledBeforeDispatch: Run hands out nothing once its context is
// done, so a run whose caller had already given up runs no item and records no
// item error — and must still fail, with the caller's own bare context error
// at index -1, inline and pooled alike.
func TestBatchCancelledBeforeDispatch(t *testing.T) {
	leakcheck.Goroutines(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for _, workers := range []int{0, 1, 4} {
		for _, tc := range []struct {
			ctx  context.Context
			want error
		}{{cancelled, context.Canceled}, {expired, context.DeadlineExceeded}} {
			var ran atomic.Int64
			i, err := RunErr(tc.ctx, workers, 3, func(context.Context, int) error {
				ran.Add(1)
				return nil
			})
			if i != -1 || err != tc.want || ran.Load() != 0 {
				t.Errorf("workers=%d: RunErr under a done context ran %d items and returned (%d, %v), want 0 and (-1, the bare %v)",
					workers, ran.Load(), i, err, tc.want)
			}
		}
		// The caller gives up mid-run: the items' cancellation errors are not
		// the run's, the caller's own is.
		ctx, stop := context.WithCancel(context.Background())
		i, err := RunErr(ctx, workers, 3, func(ctx context.Context, i int) error {
			stop()
			return fmt.Errorf("item %d: %w", i, ctx.Err())
		})
		if i != -1 || err != context.Canceled {
			t.Errorf("workers=%d: caller cancelled mid-run, RunErr = (%d, %v), want (-1, the bare context.Canceled)", workers, i, err)
		}
	}
}
