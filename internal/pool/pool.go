// Package pool is the one bounded fan-out of a request. Run serves the work
// that cannot fail: the search shards of a query batch (search), the geo
// stage's components and vote chunks (disambig) and the router's /statz fetch
// (server). RunErr serves the work that can: a table's query chunks and a
// batch of tables (annotate), whose backend or cache compute can fail, the
// service's AnnotateBatch and GeocodeBatch and the router's batch fan-out. It
// is a leaf package so every layer can call it.
package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Run runs work(0..n-1) over a bounded pool of workers. Every worker takes the
// next index while ctx is live, and the calling goroutine is the last worker,
// so one worker or fewer (or a single item, or none) is a loop that starts no
// goroutine. Work taken completes; the context error, if any, is returned once
// it has.
func Run(ctx context.Context, workers, n int, work func(int)) error {
	var next atomic.Int64
	worker := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			work(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	return ctx.Err()
}

// RunErr is Run for work that can fail. work runs under a context the first
// failure cancels, so the rest is abandoned: items in hand see it done, items
// not yet handed out never start. That abandonment makes the other items'
// cancellation errors collateral, so RunErr reports the lowest-indexed error
// that is not a cancellation, with its index, however the workers were
// scheduled. When there is none the run died because the caller gave up, and
// RunErr reports the parent's own bare error at index -1 — or, under a live
// parent, the first item that reported a cancellation of its own. (-1, nil)
// means every item succeeded.
func RunErr(parent context.Context, workers, n int, work func(ctx context.Context, i int) error) (int, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	errs := make([]error, n)
	// Run's error is ctx's, which the rule below reads off the parent.
	_ = Run(ctx, workers, n, func(i int) {
		if errs[i] = work(ctx, i); errs[i] != nil {
			cancel()
		}
	})
	first := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return i, err
		}
		if first < 0 {
			first = i
		}
	}
	// A parent that is done fails the run even when no item recorded it: Run
	// hands nothing out under a done context.
	if err := parent.Err(); err != nil || first < 0 {
		return -1, err
	}
	return first, errs[first]
}
