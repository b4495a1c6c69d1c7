// Package pool is the one bounded fan-out of a request: table batches, a
// table's query chunks, the service's batches and streams, the search shards
// of a query batch and the geo stage's components and vote chunks all run
// through Run. It is a leaf package so every layer below the service can
// call it.
package pool

import (
	"context"
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
