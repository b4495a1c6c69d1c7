// Package leakcheck holds what the test suites share to watch goroutines and
// cancellation: the one goroutine-leak assertion of the pool, stream, reload
// and router tests, the id of the running goroutine, and a context that counts
// how it is polled.
package leakcheck

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Goroutines records the goroutine count and, once the test and every cleanup
// registered after this call have run, waits for the count to come back down
// to it: a goroutine still exiting gets a few seconds, one that never will
// fails the test. Call it before the test starts servers, routers or streams,
// and not from a parallel test (the count is process-wide).
func Goroutines(t testing.TB) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines after the test, %d before it", runtime.NumGoroutine(), baseline)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// GoID is the running goroutine's id, read off its stack header: how a test
// tells which goroutine a callback ran on.
func GoID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// PollContext is a context for tests that counts the Err calls made on it —
// the request path polls Err between units of work, so the count is a
// deterministic clock of the work done under the context — records which
// goroutines made them, and, when built to, expires at a chosen poll. Contexts
// derived from it see its expiry but do not forward their polls to it.
type PollContext struct {
	context.Context // Background: no deadline, no values

	mu          sync.Mutex
	polls       int
	expireAfter int
	goroutines  map[string]bool
	done        chan struct{}
}

// NewPollContext returns a context whose Err reports
// context.DeadlineExceeded from its expireAfter-th call on; one that never
// expires when expireAfter is 0.
func NewPollContext(expireAfter int) *PollContext {
	return &PollContext{
		Context:     context.Background(),
		expireAfter: expireAfter,
		goroutines:  map[string]bool{},
		done:        make(chan struct{}),
	}
}

// Err counts the poll and the goroutine it came from.
func (c *PollContext) Err() error {
	id := GoID()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	c.goroutines[id] = true
	if c.expireAfter == 0 || c.polls < c.expireAfter {
		return nil
	}
	if c.polls == c.expireAfter {
		close(c.done)
	}
	return context.DeadlineExceeded
}

// Done is closed by the poll that expires the context.
func (c *PollContext) Done() <-chan struct{} { return c.done }

// Polls is the number of Err calls so far.
func (c *PollContext) Polls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

// Goroutines is the number of distinct goroutines that polled, and whether
// the calling goroutine is one of them.
func (c *PollContext) Goroutines() (n int, caller bool) {
	id := GoID()
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.goroutines), c.goroutines[id]
}
