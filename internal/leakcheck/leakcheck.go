// Package leakcheck is the test suites' one goroutine-leak assertion, shared
// by the pool, stream, reload and router tests.
package leakcheck

import (
	"runtime"
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
