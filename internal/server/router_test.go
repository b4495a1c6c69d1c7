package server

// Router tests: ring placement determinism, masked byte-identity between
// routed and direct responses on every proxied route, the hedging edge cases
// (primary wins after a hedge fires, worker dies mid-body, whole fleet
// ejected), and the merged /statz view. The parity tests run two real worker
// Servers over the one package-wide service — the handler-level equivalent
// of two replicas serving the same snapshot.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// noLeaks asserts the test leaves no goroutine behind. The shared service is
// built first: it outlives the test, so its construction is not the test's.
func noLeaks(t *testing.T) {
	t.Helper()
	testService(t)
	leakcheck.Goroutines(t)
}

// newTestRouter builds a router over the given worker URLs with fast probe
// cadence, registering cleanup.
func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// startWorkers boots n real worker Servers over the shared test service and
// returns their base URLs. All workers share one service — the same
// effective world two snapshot-booted replicas would hold.
func startWorkers(t *testing.T, n int, cfg Config) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(testServer(t, cfg).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func TestRingPlacement(t *testing.T) {
	workers := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r1 := newRing(workers, 64)
	r2 := newRing(workers, 64)
	counts := make([]int, len(workers))
	for i := 0; i < 4000; i++ {
		key := hashBytes([]byte(fmt.Sprintf("key-%d", i)))
		o1 := r1.owners(key, 2)
		o2 := r2.owners(key, 2)
		if len(o1) != 2 || o1[0] == o1[1] {
			t.Fatalf("owners(%d) = %v, want 2 distinct workers", key, o1)
		}
		if o1[0] != o2[0] || o1[1] != o2[1] {
			t.Fatalf("rings over the same worker list disagree: %v vs %v", o1, o2)
		}
		counts[o1[0]]++
	}
	for w, c := range counts {
		// 4000 primaries over 4 workers: virtual nodes should keep every
		// worker within a loose band of the 1000 ideal.
		if c < 400 || c > 1800 {
			t.Errorf("worker %d owns %d/4000 primaries: ring badly unbalanced", w, c)
		}
	}
	if got := r1.owners(42, 10); len(got) != len(workers) {
		t.Errorf("replication above the worker count should clamp: got %d owners", len(got))
	}
}

// ringKey is the key the router places a wire table by.
func ringKey(t *testing.T, raw []byte) uint64 {
	t.Helper()
	tbl, bad := new(edge).table(raw)
	if bad != nil {
		t.Fatal(bad.msg)
	}
	return tableKey(tbl)
}

func TestTableKeyCanonical(t *testing.T) {
	tbl := tableJSON(t)
	k1 := ringKey(t, tbl)
	// Re-marshal through a generic map: same table, different formatting
	// (indentation collapsed, key order per Go's sorted map marshaling).
	var m map[string]any
	if err := json.Unmarshal(tbl, &m); err != nil {
		t.Fatal(err)
	}
	alt, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(alt, tbl) {
		t.Fatal("test needs a distinct formatting of the same table")
	}
	if k2 := ringKey(t, alt); k1 != k2 {
		t.Errorf("same table, different formatting hashed to different keys: %x vs %x", k1, k2)
	}
	if _, bad := new(edge).table([]byte(`{"name": 3}`)); bad == nil {
		t.Error("unparseable table should not produce a key")
	}
}

// TestRouterParity locks the tentpole's core promise: a response served
// through the router is byte-identical (timing masked) to the same request
// against a single worker, on every proxied route.
func TestRouterParity(t *testing.T) {
	noLeaks(t)
	urls := startWorkers(t, 2, Config{})
	direct := testServer(t, Config{}).Handler()
	router := newTestRouter(t, RouterConfig{Workers: urls})
	rh := router.Handler()
	tbl := tableJSON(t)

	singleAnnotate := mustMarshal(t, AnnotateRequestJSON{Table: tbl, Trace: true, Geocode: true})
	singleGeocode := mustMarshal(t, GeocodeRequestJSON{Table: tbl})
	batchAnnotate := mustMarshal(t, BatchRequestJSON{Requests: []AnnotateRequestJSON{
		{Table: tbl}, {Table: tbl, Geocode: true}, {Table: tbl, Types: []string{"Museum"}},
	}})
	batchGeocode := mustMarshal(t, GeocodeBatchRequestJSON{Requests: []GeocodeRequestJSON{
		{Table: tbl}, {Table: tbl},
	}})

	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/annotate", singleAnnotate},
		{"/v1/geocode", singleGeocode},
		{"/v1/annotate:batch", batchAnnotate},
		{"/v1/geocode:batch", batchGeocode},
	} {
		t.Run(tc.path, func(t *testing.T) {
			want := post(direct, tc.path, tc.body)
			got := post(rh, tc.path, tc.body)
			if got.Code != want.Code {
				t.Fatalf("status = %d, want %d\n%s", got.Code, want.Code, got.Body.String())
			}
			if gc, wc := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); gc != wc {
				t.Errorf("content type = %q, want %q", gc, wc)
			}
			gotBody := timingRe.ReplaceAll(got.Body.Bytes(), []byte(`"$1": <wall-clock>`))
			wantBody := timingRe.ReplaceAll(want.Body.Bytes(), []byte(`"$1": <wall-clock>`))
			if !bytes.Equal(gotBody, wantBody) {
				t.Errorf("routed response diverged from direct response.\n--- routed ---\n%s\n--- direct ---\n%s", gotBody, wantBody)
			}
		})
	}
}

// TestRouterValidation covers the errors the router must produce itself —
// everything it needs to reject before it can pick an owner.
func TestRouterValidation(t *testing.T) {
	noLeaks(t)
	urls := startWorkers(t, 1, Config{})
	rh := newTestRouter(t, RouterConfig{Workers: urls, MaxBatch: 2}).Handler()
	tbl := tableJSON(t)

	for _, tc := range []struct {
		name, path string
		body       []byte
		status     int
		code       string
	}{
		{"bad json", "/v1/annotate", []byte(`{"table": `), http.StatusBadRequest, "invalid_json"},
		{"missing table", "/v1/annotate", []byte(`{}`), http.StatusBadRequest, "invalid_request"},
		{"unparseable table", "/v1/geocode", []byte(`{"table": {"name": 3}}`), http.StatusBadRequest, "invalid_request"},
		{"empty batch", "/v1/annotate:batch", []byte(`{"requests": []}`), http.StatusBadRequest, "invalid_request"},
		{"oversized batch", "/v1/geocode:batch",
			mustMarshal(t, GeocodeBatchRequestJSON{Requests: []GeocodeRequestJSON{{Table: tbl}, {Table: tbl}, {Table: tbl}}}),
			http.StatusBadRequest, "invalid_request"},
		{"bad batch item", "/v1/annotate:batch", []byte(`{"requests": [{"table": {"name": 3}}]}`), http.StatusBadRequest, "invalid_request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(rh, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d\n%s", rec.Code, tc.status, rec.Body.String())
			}
			if e := decodeError(t, rec); e.Code != tc.code {
				t.Errorf("code = %q, want %q (message %q)", e.Code, tc.code, e.Message)
			}
		})
	}

	t.Run("bad batch item is indexed", func(t *testing.T) {
		body := mustMarshal(t, map[string]any{"requests": []any{
			map[string]any{"table": json.RawMessage(tbl)},
			map[string]any{},
		}})
		rec := post(rh, "/v1/annotate:batch", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if e := decodeError(t, rec); !bytes.Contains([]byte(e.Message), []byte("request 1:")) {
			t.Errorf("message %q does not name the failing request", e.Message)
		}
	})
}

// TestHedgePrimaryWins drives hedgedDo through the race the ISSUE singles
// out: the hedge fires, then the PRIMARY answers first. The hedge must be
// cancelled and the outcome counted once.
func TestHedgePrimaryWins(t *testing.T) {
	leakcheck.Goroutines(t)
	primaryDone := make(chan struct{})
	hedgeCancelled := make(chan struct{})
	var outcomes atomic.Int64
	want := &upstreamResponse{status: 200, body: []byte("primary")}
	res, hedgeFired, hedgeWon, retries, err := hedgedDo(context.Background(), []int{0, 1}, 5*time.Millisecond, true,
		func(ctx context.Context, owner int) (*upstreamResponse, error) {
			if owner == 0 {
				// Slow enough for the hedge to fire, then win anyway.
				time.Sleep(30 * time.Millisecond)
				close(primaryDone)
				return want, nil
			}
			// The hedge parks until the winner's cleanup cancels it.
			<-ctx.Done()
			close(hedgeCancelled)
			return nil, ctx.Err()
		},
		func(owner int, d time.Duration, err error) { outcomes.Add(1) })
	if err != nil || res != want {
		t.Fatalf("hedgedDo = (%v, %v), want the primary's response", res, err)
	}
	if !hedgeFired || hedgeWon || retries != 0 {
		t.Errorf("hedgeFired=%v hedgeWon=%v retries=%d, want fired, not won, no retries", hedgeFired, hedgeWon, retries)
	}
	<-primaryDone
	select {
	case <-hedgeCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("losing hedge attempt was never cancelled")
	}
	// Both attempts complete and report exactly one outcome each — the
	// winner is not double-counted and the loser is observed as cancelled.
	deadline := time.Now().Add(2 * time.Second)
	for outcomes.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := outcomes.Load(); n != 2 {
		t.Errorf("onOutcome ran %d times, want 2", n)
	}
}

// TestHedgeWins is the complementary race: the primary is stuck, the hedge
// answers, the stuck primary is cancelled.
func TestHedgeWins(t *testing.T) {
	leakcheck.Goroutines(t)
	want := &upstreamResponse{status: 200, body: []byte("hedge")}
	res, hedgeFired, hedgeWon, _, err := hedgedDo(context.Background(), []int{0, 1}, time.Millisecond, true,
		func(ctx context.Context, owner int) (*upstreamResponse, error) {
			if owner == 0 {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return want, nil
		}, func(int, time.Duration, error) {})
	if err != nil || res != want {
		t.Fatalf("hedgedDo = (%v, %v), want the hedge's response", res, err)
	}
	if !hedgeFired || !hedgeWon {
		t.Errorf("hedgeFired=%v hedgeWon=%v, want both", hedgeFired, hedgeWon)
	}
}

// TestWorkerDiesMidBody kills the primary worker partway through writing its
// response body; the router must retry the next ring owner exactly once and
// still serve the request.
func TestWorkerDiesMidBody(t *testing.T) {
	leakcheck.Goroutines(t)
	var dyingHits, healthyHits atomic.Int64
	wantBody := `{"ok": true}`
	// Ring ownership hashes worker URLs, so which of the two random-port
	// servers is the key's primary is not known until both exist. Both run
	// the same handler; dyingHost (assigned before any traffic) selects
	// which one plays the dying primary — the retry path, not the hedge
	// path, is under test (hedging is parked far beyond the test's
	// horizon).
	var dyingHost string
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if r.Host == dyingHost {
			dyingHits.Add(1)
			// Promise more bytes than we send, then abort: the client
			// sees a transport error mid-body, after the status line
			// already arrived.
			w.Header().Set("Content-Length", "4096")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"par`))
			panic(http.ErrAbortHandler)
		}
		healthyHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(wantBody))
	})
	srvA := httptest.NewServer(handler)
	defer srvA.Close()
	srvB := httptest.NewServer(handler)
	defer srvB.Close()

	body := mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t)})
	workers := []string{srvA.URL, srvB.URL}
	primary := newRing(workers, 64).owners(ringKey(t, tableJSON(t)), 2)[0]
	dyingHost = strings.TrimPrefix(workers[primary], "http://")
	router := newTestRouter(t, RouterConfig{
		Workers:       workers,
		HedgeInitial:  30 * time.Second,
		ProbeInterval: time.Hour, // health never interferes; transport errors alone drive this test
	})
	rec := post(router.Handler(), "/v1/annotate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 after retry\n%s", rec.Code, rec.Body.String())
	}
	if rec.Body.String() != wantBody {
		t.Errorf("body = %q, want the healthy worker's response", rec.Body.String())
	}
	if got := dyingHits.Load(); got != 1 {
		t.Errorf("dying worker served %d attempts, want exactly 1 (no retry storm)", got)
	}
	if got := healthyHits.Load(); got != 1 {
		t.Errorf("healthy worker served %d attempts, want exactly 1 retry", got)
	}
	if got := router.retries.Load(); got != 1 {
		t.Errorf("router counted %d retries, want 1", got)
	}
}

// TestAllWorkersEjected starves the router of workers: every replica fails
// its health probes, traffic gets the typed 503, and a recovered worker is
// readmitted by the backoff prober.
func TestAllWorkersEjected(t *testing.T) {
	leakcheck.Goroutines(t)
	var down atomic.Bool
	down.Store(true)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == "/healthz" {
			writeJSON(w, http.StatusOK, HealthJSON{Status: "ok"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok": true}`))
	}))
	defer worker.Close()

	router := newTestRouter(t, RouterConfig{
		Workers:            []string{worker.URL},
		ProbeInterval:      10 * time.Millisecond,
		ProbeFailThreshold: 2,
		ProbeBackoffMax:    40 * time.Millisecond,
	})
	rh := router.Handler()
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for " + what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(func() bool { return router.prober.healthyCount() == 0 }, "ejection of the only worker")

	body := mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t)})
	rec := post(rh, "/v1/annotate", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != "no_workers" {
		t.Errorf("code = %q, want no_workers", e.Code)
	}
	hrec := httptest.NewRecorder()
	rh.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable {
		t.Errorf("router /healthz = %d while fleet is down, want 503", hrec.Code)
	}
	if n := router.noWorkerErrors.Load(); n == 0 {
		t.Error("no_worker_errors counter did not advance")
	}

	// Batch requests hit the same wall with the same typed error.
	brec := post(rh, "/v1/annotate:batch", mustMarshal(t, map[string]any{"requests": []any{
		map[string]any{"table": json.RawMessage(tableJSON(t))},
	}}))
	if brec.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch status = %d, want 503\n%s", brec.Code, brec.Body.String())
	}
	if e := decodeError(t, brec); e.Code != "no_workers" {
		t.Errorf("batch code = %q, want no_workers", e.Code)
	}

	// Recovery: the backoff prober readmits the worker once it answers.
	down.Store(false)
	waitFor(func() bool { return router.prober.healthyCount() == 1 }, "readmission after recovery")
	rec = post(rh, "/v1/annotate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status after readmission = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
}

// TestRouterStatz checks the merged fleet view: summed counters, per-worker
// detail, and the router's own section.
func TestRouterStatz(t *testing.T) {
	noLeaks(t)
	urls := startWorkers(t, 2, Config{})
	router := newTestRouter(t, RouterConfig{Workers: urls})
	rh := router.Handler()
	tbl := tableJSON(t)

	for i := 0; i < 3; i++ {
		if rec := post(rh, "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tbl})); rec.Code != http.StatusOK {
			t.Fatalf("annotate %d: status %d\n%s", i, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	rh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statz status = %d\n%s", rec.Code, rec.Body.String())
	}
	var st StatzJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Router == nil {
		t.Fatal("router statz is missing the router section")
	}
	if st.Router.WorkersTotal != 2 || st.Router.WorkersHealthy != 2 {
		t.Errorf("workers_total=%d workers_healthy=%d, want 2/2", st.Router.WorkersTotal, st.Router.WorkersHealthy)
	}
	if st.Router.Replication != 2 {
		t.Errorf("replication = %d, want 2", st.Router.Replication)
	}
	if st.Served != 3 {
		t.Errorf("merged served = %d, want the fleet sum 3", st.Served)
	}
	if st.Router.Routed != 3 {
		t.Errorf("routed = %d, want 3", st.Router.Routed)
	}
	if len(st.Router.Workers) != 2 {
		t.Fatalf("per-worker detail has %d entries, want 2", len(st.Router.Workers))
	}
	var workerServed int64
	for _, wj := range st.Router.Workers {
		if !wj.Reachable || !wj.Healthy {
			t.Errorf("worker %s: reachable=%v healthy=%v, want both", wj.URL, wj.Reachable, wj.Healthy)
		}
		workerServed += wj.Served
	}
	if workerServed != 3 {
		t.Errorf("per-worker served sums to %d, want 3", workerServed)
	}
	if st.Search == nil || st.Search.Queries == 0 {
		t.Fatal("merged search stats missing")
	}
}

// TestRouterStatzMerge pins the merge rule of every worker counter the router
// folds into its /statz: two scripted workers report distinct non-zero values
// everywhere, and the router sums the counters, keeps the larger component
// and scratch peaks, and recomputes the hit rate and the average batch size
// from the sums rather than passing a worker's ratio through.
func TestRouterStatzMerge(t *testing.T) {
	noLeaks(t)
	reports := []StatzJSON{{
		Served: 11, Rejected: 3, Failed: 2,
		Search: &SearchFull{IndexDocs: 900, Shards: 2, Queries: 40, Batches: 4, BatchedQueries: 36, AvgBatchSize: 9},
		Cache:  &CacheFull{Hits: 30, Misses: 10, Entries: 10, HitRate: 0.75, Evictions: 4},
		Geo:    &GeoFull{GazetteerLocations: 500, Requests: 5, LargestComponent: 90, PeakScratchBytes: 1000},
	}, {
		Served: 22, Rejected: 5, Failed: 7,
		Search: &SearchFull{IndexDocs: 900, Shards: 2, Queries: 60, Batches: 12, BatchedQueries: 48, AvgBatchSize: 4},
		Cache:  &CacheFull{Hits: 2, Misses: 18, Entries: 18, HitRate: 0.1, Evictions: 9},
		Geo:    &GeoFull{GazetteerLocations: 500, Requests: 8, LargestComponent: 40, PeakScratchBytes: 3000},
	}}
	urls := make([]string, len(reports))
	for i, st := range reports {
		urls[i] = scriptedWorker(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, st)
		}), func(string, *http.Request) bool { return true })
	}
	rec := httptest.NewRecorder()
	newTestRouter(t, RouterConfig{Workers: urls}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var st StatzJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statz: %v\n%s", err, rec.Body.String())
	}
	if st.Served != 33 || st.Rejected != 8 || st.Failed != 9 {
		t.Errorf("served/rejected/failed = %d/%d/%d, want the sums 33/8/9", st.Served, st.Rejected, st.Failed)
	}
	wantSearch := SearchFull{IndexDocs: 900, Shards: 2, Queries: 100, Batches: 16, BatchedQueries: 84, AvgBatchSize: 84.0 / 16}
	if st.Search == nil || !reflect.DeepEqual(*st.Search, wantSearch) {
		t.Errorf("merged search = %+v, want %+v", st.Search, wantSearch)
	}
	wantCache := CacheFull{Hits: 32, Misses: 28, Entries: 28, HitRate: 32.0 / 60, Evictions: 13}
	if st.Cache == nil || *st.Cache != wantCache {
		t.Errorf("merged cache = %+v, want %+v", st.Cache, wantCache)
	}
	wantGeo := GeoFull{GazetteerLocations: 500, Requests: 13, LargestComponent: 90, PeakScratchBytes: 3000}
	if st.Geo == nil || *st.Geo != wantGeo {
		t.Errorf("merged geo = %+v, want %+v", st.Geo, wantGeo)
	}
}

// TestRouterAdmission fills the edge semaphore and checks the jittered
// Retry-After 429, without any worker involvement.
func TestRouterAdmission(t *testing.T) {
	noLeaks(t)
	urls := startWorkers(t, 1, Config{})
	router := newTestRouter(t, RouterConfig{Workers: urls, MaxInFlight: 2})
	rh := router.Handler()
	body := mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t)})

	router.sem <- struct{}{}
	router.sem <- struct{}{}
	rec := post(rh, "/v1/annotate", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != "over_capacity" {
		t.Errorf("code = %q, want over_capacity", e.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if ra != "1" && ra != "2" && ra != "3" {
		t.Errorf("Retry-After = %q, want a 1..3s hint", ra)
	}
	if rec2 := post(rh, "/v1/annotate", body); rec2.Header().Get("Retry-After") != ra {
		t.Error("Retry-After jitter is not deterministic for the same request")
	}
	// With one of the two slots still held, a 2-table batch cannot admit:
	// admission is weighted by table count, all-or-nothing.
	<-router.sem
	brec := post(rh, "/v1/annotate:batch", mustMarshal(t, BatchRequestJSON{Requests: []AnnotateRequestJSON{
		{Table: tableJSON(t)}, {Table: tableJSON(t)},
	}}))
	if brec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch status = %d, want 429 (weighted admission)\n%s", brec.Code, brec.Body.String())
	}
	<-router.sem
	if got := len(router.sem); got != 0 {
		t.Fatalf("in flight = %d after draining, want 0 (failed admissions must not leak slots)", got)
	}
}

// TestLatencyTracker pins the hedge-delay policy: Initial until the window
// has enough samples, then the window's p95 floored at Min.
func TestLatencyTracker(t *testing.T) {
	tr := newLatencyTracker(250*time.Millisecond, 5*time.Millisecond)
	if got := tr.delay(); got != 250*time.Millisecond {
		t.Fatalf("empty tracker delay = %v, want Initial", got)
	}
	for i := 0; i < minSamples-1; i++ {
		tr.observe(time.Millisecond)
	}
	if got := tr.delay(); got != 250*time.Millisecond {
		t.Fatalf("delay below minSamples = %v, want Initial", got)
	}
	tr.observe(time.Millisecond)
	if got := tr.delay(); got != 5*time.Millisecond {
		t.Fatalf("delay over all-fast window = %v, want the Min floor", got)
	}
	// 100 samples 1..100ms: p95 lands in the mid-90s.
	tr2 := newLatencyTracker(250*time.Millisecond, time.Millisecond)
	for i := 1; i <= 100; i++ {
		tr2.observe(time.Duration(i) * time.Millisecond)
	}
	if got := tr2.delay(); got < 90*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p95 of 1..100ms = %v, want ~95ms", got)
	}
	// The window slides: a window of fresh 2ms samples pushes the old tail out.
	for i := 0; i < latencyWindow; i++ {
		tr2.observe(2 * time.Millisecond)
	}
	if got := tr2.delay(); got != 2*time.Millisecond {
		t.Fatalf("delay after window turnover = %v, want 2ms", got)
	}
	if got := tr2.samples(); got != latencyWindow {
		t.Fatalf("samples = %d, want the window size", got)
	}
}

// TestProberBackoff pins the ejected-worker probe schedule: exponential
// doubling capped at BackoffMax, reset on readmission.
func TestProberBackoff(t *testing.T) {
	p := newProber(RouterConfig{
		Workers:            []string{"http://x:1"},
		ProbeInterval:      10 * time.Millisecond,
		ProbeFailThreshold: 2,
		ProbeBackoffMax:    40 * time.Millisecond,
	}, http.DefaultClient)
	w := p.workers[0]
	p.observeFailure(w, "boom")
	if !w.isHealthy() {
		t.Fatal("one failure below the threshold must not eject")
	}
	p.observeFailure(w, "boom")
	if w.isHealthy() {
		t.Fatal("threshold failures must eject")
	}
	if _, ej, lastErr := w.snapshotStats(); ej != 1 || lastErr != "boom" {
		t.Fatalf("ejections=%d lastErr=%q, want 1, boom", ej, lastErr)
	}
	for _, want := range []time.Duration{20, 40, 40} {
		p.observeFailure(w, "still down")
		if w.backoff != want*time.Millisecond {
			t.Fatalf("backoff = %v, want %v", w.backoff, want*time.Millisecond)
		}
	}
	w.readmit()
	if !w.isHealthy() || w.consecFails != 0 {
		t.Fatal("readmission must reset the state machine")
	}
	// The next ejection starts the backoff ladder over.
	p.observeFailure(w, "down again")
	p.observeFailure(w, "down again")
	if w.backoff != 10*time.Millisecond {
		t.Fatalf("backoff after re-ejection = %v, want the base interval", w.backoff)
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("NewRouter with no workers must fail")
	}
	r, err := NewRouter(RouterConfig{Workers: []string{"http://a:1"}, Replication: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.cfg.Replication != 1 {
		t.Errorf("replication = %d, want clamped to the worker count", r.cfg.Replication)
	}
	if r.maxInFlight != 256 || cap(r.sem) != 256 || r.maxBatch != 32 {
		t.Errorf("defaults = (%d over a semaphore of %d, %d), want (256, 256, 32)", r.maxInFlight, cap(r.sem), r.maxBatch)
	}
}

// TestHedgeShedDemotion: a hedge that lands on a busy replica gets an
// instant 429; it must not beat a slow-but-succeeding primary, but it is
// still the answer when every attempt sheds.
func TestHedgeShedDemotion(t *testing.T) {
	leakcheck.Goroutines(t)
	want := &upstreamResponse{status: http.StatusOK, body: []byte("slow but fine")}
	shed := &upstreamResponse{status: http.StatusTooManyRequests}
	res, _, hedgeWon, _, err := hedgedDo(context.Background(), []int{0, 1}, time.Millisecond, true,
		func(ctx context.Context, owner int) (*upstreamResponse, error) {
			if owner == 0 {
				time.Sleep(30 * time.Millisecond)
				return want, nil
			}
			return shed, nil
		}, func(int, time.Duration, error) {})
	if err != nil || res != want {
		t.Fatalf("hedgedDo = (%v, %v), want the primary's 200 over the hedge's 429", res, err)
	}
	if hedgeWon {
		t.Error("a shed hedge response must not count as a hedge win")
	}

	res, _, _, _, err = hedgedDo(context.Background(), []int{0, 1}, time.Millisecond, true,
		func(ctx context.Context, owner int) (*upstreamResponse, error) {
			if owner == 1 {
				time.Sleep(10 * time.Millisecond)
			}
			return shed, nil
		}, func(int, time.Duration, error) {})
	if err != nil || res != shed {
		t.Fatalf("hedgedDo with every attempt shed = (%v, %v), want the 429 relayed", res, err)
	}
}

// TestHedgedDoErrors covers the exhausted paths: no owners at all, and every
// attempt failing transport.
func TestHedgedDoErrors(t *testing.T) {
	if _, _, _, _, err := hedgedDo(context.Background(), nil, time.Millisecond, true, nil, nil); !errors.Is(err, errNoOwners) {
		t.Fatalf("err = %v, want errNoOwners", err)
	}
	boom := errors.New("connection refused")
	_, _, _, retries, err := hedgedDo(context.Background(), []int{0, 1}, time.Hour, false,
		func(ctx context.Context, owner int) (*upstreamResponse, error) {
			return nil, fmt.Errorf("worker %d: %w", owner, boom)
		}, func(int, time.Duration, error) {})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the transport error", err)
	}
	if retries != 1 {
		t.Fatalf("retries = %d, want exactly 1", retries)
	}
}

// scriptedTable is a one-cell wire table a scripted worker tells apart by name.
func scriptedTable(name string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"name":%q,"columns":[{"header":"A","type":"Text"}],"rows":[["a"]]}`, name))
}

// scriptedWorker starts a worker whose v1 routes run script with the name of
// the posted table; /healthz answers ok and /statz runs script("statz").
// script returns false once it has answered (or abandoned) the request itself.
func scriptedWorker(t *testing.T, next http.Handler, script func(name string, r *http.Request) bool) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "statz"
		switch r.URL.Path {
		case "/healthz":
			writeJSON(w, http.StatusOK, HealthJSON{Status: "ok"})
			return
		case "/statz":
		default:
			var wire struct {
				Table struct {
					Name string `json:"name"`
				} `json:"table"`
			}
			body, err := io.ReadAll(r.Body)
			if err != nil || json.Unmarshal(body, &wire) != nil {
				t.Errorf("scripted worker: unreadable body (%v): %s", err, body)
				return
			}
			name = wire.Table.Name
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		if script(name, r) {
			next.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRouterBatchFailureRule: the router's batch fan-out runs under the pool's
// failure rule, the one a worker-side batch runs under. Sub-requests 0 and 2
// hang until the fan-out abandons them, 1 succeeds, and only then does 3 fail:
// the cancellations the failure caused sit at lower indices and must not mask
// it, so the router names request 3 with the status, code and message the
// worker's own batch endpoint gives for the same body. (The other half of the
// rule — a late real failure at a lower index beating the early one that
// cancelled the fan-out — cannot be scripted here: hedgedDo answers a done
// context before any late result, so an abandoned sub-request only ever
// reports its cancellation. TestBatchErrorRule pins it on pool.RunErr.)
func TestRouterBatchFailureRule(t *testing.T) {
	noLeaks(t)
	worker := testServer(t, Config{}).Handler()
	var hung sync.WaitGroup
	hung.Add(2)
	answered := make(chan struct{})
	var abandoned atomic.Int64
	url := scriptedWorker(t, worker, func(name string, r *http.Request) bool {
		switch name {
		case "t0", "t2":
			hung.Done()
			<-r.Context().Done()
			abandoned.Add(1)
			return false
		case "t1":
			defer close(answered)
		case "t3":
			hung.Wait()
			<-answered
		}
		return true
	})
	router := newTestRouter(t, RouterConfig{Workers: []string{url}, DisableHedging: true, ProbeInterval: time.Hour})

	body := mustMarshal(t, BatchRequestJSON{Requests: []AnnotateRequestJSON{
		{Table: scriptedTable("t0")}, {Table: scriptedTable("t1")}, {Table: scriptedTable("t2")}, {Table: scriptedTable("t3"), K: -1},
	}})
	want := post(worker, "/v1/annotate:batch", body)
	got := post(router.Handler(), "/v1/annotate:batch", body)
	we, ge := decodeError(t, want), decodeError(t, got)
	if want.Code != http.StatusBadRequest || we.Code != "invalid_request" || !strings.HasPrefix(we.Message, "request 3: ") {
		t.Fatalf("worker-side batch answered %d %s %q, want a 400 naming request 3", want.Code, we.Code, we.Message)
	}
	if got.Code != want.Code || ge != we {
		t.Errorf("routed batch answered %d %+v\n worker-side batch %d %+v", got.Code, ge, want.Code, we)
	}
	// The hung sub-requests were cancelled, not waited out.
	for deadline := time.Now().Add(5 * time.Second); abandoned.Load() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the 2 hung sub-requests were abandoned", abandoned.Load())
		}
	}
}

// TestRouterClientCancels: a client that gives up mid-batch gets the answer a
// worker-side batch gives — the bare cancellation, no request index — and one
// that gives up mid-/statz gets the fleet it had reached; neither leaves a
// goroutine behind.
func TestRouterClientCancels(t *testing.T) {
	noLeaks(t)
	entered := make(chan struct{}, 2)
	url := scriptedWorker(t, nil, func(_ string, r *http.Request) bool {
		entered <- struct{}{}
		<-r.Context().Done()
		return false
	})
	rh := newTestRouter(t, RouterConfig{Workers: []string{url}, DisableHedging: true, ProbeInterval: time.Hour}).Handler()
	// serve runs req until n worker calls hang, then has the client give up.
	serve := func(req *http.Request, n int) *httptest.ResponseRecorder {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			rh.ServeHTTP(rec, req.WithContext(ctx))
		}()
		for i := 0; i < n; i++ {
			<-entered
		}
		cancel()
		<-done
		return rec
	}

	body := mustMarshal(t, GeocodeBatchRequestJSON{Requests: []GeocodeRequestJSON{{Table: scriptedTable("t0")}, {Table: scriptedTable("t1")}}})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	want := httptest.NewRecorder()
	testServer(t, Config{}).Handler().ServeHTTP(want,
		httptest.NewRequest(http.MethodPost, "/v1/geocode:batch", bytes.NewReader(body)).WithContext(cancelled))
	got := serve(httptest.NewRequest(http.MethodPost, "/v1/geocode:batch", bytes.NewReader(body)), 2)
	if we, ge := decodeError(t, want), decodeError(t, got); got.Code != statusClientClosedRequest || got.Code != want.Code || ge != we {
		t.Errorf("cancelled routed batch answered %d %+v\n cancelled worker-side batch %d %+v", got.Code, ge, want.Code, we)
	}

	rec := serve(httptest.NewRequest(http.MethodGet, "/statz", nil), 1)
	var st StatzJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("statz after the client gave up: status %d, %v\n%s", rec.Code, err, rec.Body.String())
	}
	if st.Router == nil || len(st.Router.Workers) != 1 || st.Router.Workers[0].Reachable {
		t.Errorf("statz after the client gave up: router section %+v, want the one worker unreachable", st.Router)
	}
}
