package server

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// latencyTracker maintains a sliding window of recent proxied-request
// latencies and serves the hedge delay: the window's p95, floored at Min.
// Firing the hedge at ~p95 means roughly 5% of requests cost a duplicate
// attempt — the standard tail-vs-load trade (The Tail at Scale) — while the
// slowest requests stop waiting on a stuck replica. Until the window has
// enough samples to estimate a tail at all, Initial is served instead.
type latencyTracker struct {
	mu      sync.Mutex
	window  []time.Duration // ring buffer of the last cap(window) samples
	next    int             // next write position
	filled  bool            // the buffer has wrapped at least once
	scratch []time.Duration // reused sort buffer

	// Initial is the delay served before minSamples observations exist.
	Initial time.Duration
	// Min floors the computed delay so a burst of fast responses cannot
	// drive the hedge rate toward 100%.
	Min time.Duration
}

// minSamples is the observation count below which the tracker does not trust
// its p95 and keeps serving Initial.
const minSamples = 20

// latencyWindow is the number of recent samples the p95 ranks.
const latencyWindow = 512

func newLatencyTracker(initial, min time.Duration) *latencyTracker {
	return &latencyTracker{
		window:  make([]time.Duration, latencyWindow),
		scratch: make([]time.Duration, 0, latencyWindow),
		Initial: initial,
		Min:     min,
	}
}

// observe records one successful attempt's latency.
func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.window[t.next] = d
	t.next++
	if t.next == len(t.window) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
}

// delay returns the current hedge delay: p95 of the window (floored at Min),
// or Initial while the window is still too empty to rank.
func (t *latencyTracker) delay() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.filled {
		n = len(t.window)
	}
	if n < minSamples {
		return t.Initial
	}
	t.scratch = append(t.scratch[:0], t.window[:n]...)
	sort.Slice(t.scratch, func(i, j int) bool { return t.scratch[i] < t.scratch[j] })
	d := t.scratch[n*95/100]
	if d < t.Min {
		d = t.Min
	}
	return d
}

// samples is the number of observations currently in the window.
func (t *latencyTracker) samples() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filled {
		return len(t.window)
	}
	return t.next
}

// attemptResult is one worker attempt's outcome: a fully-buffered upstream
// response (any HTTP status counts — a worker's 400 is the answer, not a
// reason to try another worker), or a transport error.
type attemptResult struct {
	res *upstreamResponse
	err error
	// worker indexes r.owners for the attempt that produced this result.
	worker int
}

// hedgedDo runs attempt against owners with tail-latency hedging and
// dead-worker retry:
//
//   - The primary attempt goes to owners[0]. If it has not answered within
//     delay and a second owner exists, a hedge attempt fires at owners[1];
//     the first response wins and the loser's context is cancelled.
//   - A transport error (worker died mid-body, connection refused) falls to
//     the next owner EXACTLY once per failed attempt — and only while no
//     other attempt is still in flight, so a hedge already racing doubles as
//     the retry.
//   - A sheddable response (429/503) does not win the race while another
//     attempt is still in flight: at saturation a busy replica answers 429
//     in microseconds, and letting that beat a slow-but-succeeding primary
//     would turn every hedge into a rejection. The shed response is held as
//     the fallback and returned only if every other attempt also fails.
//
// onOutcome is invoked once per completed attempt (hedge or primary) with
// its owner index and transport error, letting the router feed health state
// and latency observations without hedgedDo knowing about either. The
// returned counters say whether a hedge fired and whether it won.
func hedgedDo(
	ctx context.Context,
	owners []int,
	delay time.Duration,
	hedge bool,
	attempt func(ctx context.Context, owner int) (*upstreamResponse, error),
	onOutcome func(owner int, d time.Duration, err error),
) (res *upstreamResponse, hedgeFired, hedgeWon bool, retries int, err error) {
	if len(owners) == 0 {
		return nil, false, false, 0, errNoOwners
	}
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan attemptResult, len(owners))
	inflight := 0
	nextOwner := 0
	launch := func() {
		owner := nextOwner
		nextOwner++
		inflight++
		go func() {
			start := time.Now()
			r, aerr := attempt(ctx, owner)
			onOutcome(owner, time.Since(start), aerr)
			select {
			case results <- attemptResult{res: r, err: aerr, worker: owner}:
			case <-ctx.Done():
			}
		}()
	}
	launch() // primary

	var timer *time.Timer
	var timerC <-chan time.Time
	if hedge && len(owners) > 1 {
		timer = time.NewTimer(delay)
		defer timer.Stop()
		timerC = timer.C
	}

	var lastErr error
	var held *attemptResult // sheddable response parked while others race
	for {
		select {
		case <-ctx.Done():
			return nil, hedgeFired, false, retries, ctx.Err()
		case <-timerC:
			timerC = nil // fire at most one hedge
			if nextOwner < len(owners) {
				hedgeFired = true
				launch()
			}
		case r := <-results:
			inflight--
			if r.err == nil {
				if sheddable(r.res) && inflight > 0 {
					if held == nil {
						held = &r
					}
					continue
				}
				if sheddable(r.res) && held != nil {
					r = *held // every attempt shed; relay the first rejection
				}
				// First winning response; cancelAll (deferred) aborts the
				// loser mid-flight.
				return r.res, hedgeFired, hedgeFired && r.worker > 0, retries, nil
			}
			lastErr = r.err
			if inflight > 0 {
				// The other attempt is still racing; it IS the retry.
				continue
			}
			if held != nil {
				// The racing attempt died transport; the parked shed
				// response is still a real answer.
				return held.res, hedgeFired, hedgeFired && held.worker > 0, retries, nil
			}
			if retries == 0 && nextOwner < len(owners) {
				// Dead worker: one retry on the next ring owner. A hedge
				// that already fired consumed the budget above.
				retries++
				launch()
				continue
			}
			return nil, hedgeFired, false, retries, lastErr
		}
	}
}

// sheddable reports a load-shed response — one a racing duplicate should
// outrank.
func sheddable(res *upstreamResponse) bool {
	return res != nil && (res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable)
}
