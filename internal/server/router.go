package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Router is the distributed serving tier's edge: it consistent-hashes each
// table (by the hash of its canonical bytes) onto a replica set of worker
// cmd/serve instances — all serving from the same snapshot, so every worker
// answers every table identically and placement is purely a cache/locality
// and load-spreading choice — and proxies the v1 surface:
//
//	POST /v1/annotate        routed by the table's key, hedged
//	POST /v1/annotate:batch  split per table, hedged fan-out, merged in order
//	POST /v1/geocode         routed by the table's key, hedged
//	POST /v1/geocode:batch   split per table, hedged fan-out, merged in order
//	GET  /healthz            ok while >= 1 worker is healthy
//	GET  /statz              merged per-worker stats + router-side counters
//
// Tail latency is defended by request hedging: when the primary owner has
// not answered within the p95-tracked delay, a second attempt fires at the
// next ring owner and the first response wins (the loser's context is
// cancelled). Because annotation is a pure function of the request and the
// shared snapshot, a hedged duplicate can never diverge — the winning
// response is byte-identical either way. Worker health is probed in the
// background with ejection and exponential-backoff readmission; admission at
// the edge reuses the same weighted semaphore the workers run.
type Router struct {
	cfg     RouterConfig
	ring    *ring
	prober  *prober
	client  *http.Client
	sem     semaphore
	tracker *latencyTracker
	start   time.Time

	served         atomic.Int64 // proxied requests answered with an upstream response
	rejected       atomic.Int64 // shed at the router's admission gate
	hedgesFired    atomic.Int64
	hedgesWon      atomic.Int64
	retries        atomic.Int64
	noWorkerErrors atomic.Int64
	upstreamErrors atomic.Int64
}

// RouterConfig configures NewRouter. Workers is required; the zero value of
// every other field selects a sensible default.
type RouterConfig struct {
	// Workers are the base URLs of the worker replicas (e.g.
	// "http://10.0.0.1:8080"), each a cmd/serve instance booted from the
	// shared snapshot. Required, at least one.
	Workers []string
	// Replication is the number of ring owners per key — the replica set a
	// hedge or retry can fall to. Default 2, clamped to len(Workers).
	Replication int
	// MaxInFlight bounds concurrently-proxied table requests at the edge
	// (weighted: a batch costs one slot per table). Default 256.
	MaxInFlight int
	// MaxBatch bounds the requests per batch call. Default 32, clamped to
	// MaxInFlight.
	MaxBatch int
	// DisableHedging turns tail-latency hedging off; the ring still
	// provides the retry owner for dead workers.
	DisableHedging bool
	// HedgeInitial is the hedge delay served before the latency tracker
	// has enough samples for a p95. Default 100ms.
	HedgeInitial time.Duration
	// ProbeInterval, ProbeFailThreshold and ProbeBackoffMax drive the
	// health prober: /healthz is polled every ProbeInterval (default 1s;
	// one probe may take that long, and at least probeTimeoutMin),
	// ProbeFailThreshold consecutive failures (default 3) eject a worker,
	// and an ejected worker is re-probed with exponential backoff capped at
	// ProbeBackoffMax (default 30s) until a success readmits it. No command
	// sets the threshold or the cap; they stay settable because the router
	// tests need a dead worker ejected and readmitted within milliseconds.
	ProbeInterval      time.Duration
	ProbeFailThreshold int
	ProbeBackoffMax    time.Duration
}

// The router's fixed parameters: no deployment or test needs another value.
const (
	// ringVirtualNodes is the number of ring points per worker.
	ringVirtualNodes = 64
	// maxBodyBytes bounds a request body at the router, and is a worker's
	// default (Config.MaxBodyBytes): 8 MiB.
	maxBodyBytes = 8 << 20
	// hedgeMin floors the p95-tracked hedge delay.
	hedgeMin = 2 * time.Millisecond
	// probeTimeoutMin floors one probe's timeout, which is otherwise the
	// probe interval.
	probeTimeoutMin = 100 * time.Millisecond
)

// errNoOwners is hedgedDo's "nothing to try" failure; the handler maps it to
// the typed 503 no_workers error.
var errNoOwners = errors.New("no healthy workers own this key")

// NewRouter builds the router and starts its health prober; Close stops it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("server: RouterConfig.Workers is empty")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Workers) {
		cfg.Replication = len(cfg.Workers)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.MaxBatch > cfg.MaxInFlight {
		cfg.MaxBatch = cfg.MaxInFlight
	}
	if cfg.HedgeInitial <= 0 {
		cfg.HedgeInitial = 100 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeFailThreshold <= 0 {
		cfg.ProbeFailThreshold = 3
	}
	if cfg.ProbeBackoffMax <= 0 {
		cfg.ProbeBackoffMax = 30 * time.Second
	}
	// One client proxies and probes: a generous connection pool per worker
	// and no global timeout (proxied requests inherit the caller's context,
	// probes carry their own).
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	client := &http.Client{Transport: tr}
	r := &Router{
		cfg:     cfg,
		ring:    newRing(cfg.Workers, ringVirtualNodes),
		prober:  newProber(cfg, client),
		client:  client,
		sem:     newSemaphore(cfg.MaxInFlight),
		tracker: newLatencyTracker(cfg.HedgeInitial, hedgeMin),
		start:   time.Now(),
	}
	r.prober.start()
	return r, nil
}

// Close stops the background health prober. In-flight proxied requests are
// unaffected.
func (r *Router) Close() { r.prober.stopProbing() }

// HedgeCounters reports how many hedge attempts have fired and how many won
// the race, for benchmarks and operational checks outside the /statz wire.
func (r *Router) HedgeCounters() (fired, won int64) {
	return r.hedgesFired.Load(), r.hedgesWon.Load()
}

// Handler returns the router's route table (see the Router doc).
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/annotate", func(w http.ResponseWriter, req *http.Request) {
		r.handleSingle(w, req, "/v1/annotate")
	})
	mux.HandleFunc("POST /v1/geocode", func(w http.ResponseWriter, req *http.Request) {
		r.handleSingle(w, req, "/v1/geocode")
	})
	mux.HandleFunc("POST /v1/annotate:batch", func(w http.ResponseWriter, req *http.Request) {
		r.handleBatch(w, req, "/v1/annotate")
	})
	mux.HandleFunc("POST /v1/geocode:batch", func(w http.ResponseWriter, req *http.Request) {
		r.handleBatch(w, req, "/v1/geocode")
	})
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /statz", r.handleStatz)
	return mux
}

// upstreamResponse is one fully-buffered worker response. Buffering (rather
// than streaming) is what makes hedging safe: the loser can be cancelled and
// its half-written body discarded without the client ever seeing a byte of
// it.
type upstreamResponse struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// readBody buffers the request body within the size limit, writing the typed
// error response itself on failure.
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	req.Body = http.MaxBytesReader(w, req.Body, maxBodyBytes)
	body, err := io.ReadAll(req.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			r.writeError(w, http.StatusRequestEntityTooLarge, "table_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		} else {
			r.writeError(w, http.StatusBadRequest, "invalid_json", err.Error())
		}
		return nil, false
	}
	return body, true
}

// routeKey extracts the table from one single-request body and derives its
// ring key. The router validates only what routing needs — body parses,
// table parses canonically; everything else (unknown fields, bad types,
// size) is the owning worker's call, so validation semantics live in exactly
// one place.
func routeKey(body []byte) (uint64, int, string, string) {
	var wire struct {
		Table json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return 0, http.StatusBadRequest, "invalid_json", err.Error()
	}
	if len(wire.Table) == 0 {
		return 0, http.StatusBadRequest, "invalid_request", "table: missing"
	}
	key, err := tableKey(wire.Table)
	if err != nil {
		return 0, http.StatusBadRequest, "invalid_request", "table: " + err.Error()
	}
	return key, 0, "", ""
}

// handleSingle proxies one single-table request: route by the table's key,
// hedge, relay the winning response verbatim.
func (r *Router) handleSingle(w http.ResponseWriter, req *http.Request, path string) {
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	key, status, code, msg := routeKey(body)
	if code != "" {
		r.writeError(w, status, code, msg)
		return
	}
	if !r.admit(w, 1, key) {
		return
	}
	defer r.sem.release(1)
	res, err := r.route(req.Context(), key, path, body)
	if err != nil {
		r.writeRouteError(w, req.Context(), err)
		return
	}
	r.served.Add(1)
	r.relay(w, res)
}

// handleBatch splits a batch body into its per-table sub-requests, routes
// each to its own ring owners concurrently (each sub-request body is exactly
// a single-request body for path), and merges the responses in request
// order. The first failed sub-request — lowest index wins, for determinism —
// fails the whole batch with its index, mirroring the worker-side batch
// semantics; the remaining sub-requests are cancelled.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request, path string) {
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	var wire struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		r.writeError(w, http.StatusBadRequest, "invalid_json", err.Error())
		return
	}
	if len(wire.Requests) == 0 {
		r.writeError(w, http.StatusBadRequest, "invalid_request", "requests is empty")
		return
	}
	if len(wire.Requests) > r.cfg.MaxBatch {
		r.writeError(w, http.StatusBadRequest, "invalid_request",
			fmt.Sprintf("batch of %d requests exceeds the limit of %d", len(wire.Requests), r.cfg.MaxBatch))
		return
	}
	keys := make([]uint64, len(wire.Requests))
	for i, sub := range wire.Requests {
		key, status, code, msg := routeKey(sub)
		if code != "" {
			r.writeError(w, status, code, fmt.Sprintf("request %d: %s", i, msg))
			return
		}
		keys[i] = key
	}
	if !r.admit(w, len(wire.Requests), hashBytes(body)) {
		return
	}
	defer r.sem.release(len(wire.Requests))

	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	results := make([]*upstreamResponse, len(wire.Requests))
	errs := make([]error, len(wire.Requests))
	var wg sync.WaitGroup
	for i := range wire.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.route(ctx, keys[i], path, wire.Requests[i])
			if err == nil && res.status != http.StatusOK {
				err = &upstreamStatusError{res: res}
			}
			if err != nil {
				errs[i] = err
				cancel() // first failure aborts the rest of the fan-out
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !isCancellation(err) {
			r.writeBatchItemError(w, req.Context(), i, err)
			return
		}
	}
	for i, err := range errs {
		if err != nil {
			r.writeBatchItemError(w, req.Context(), i, err)
			return
		}
	}

	// Reassemble the batch wire shape from the sub-response bodies. The
	// encoder re-indents embedded RawMessage content, so the merged body is
	// byte-identical to a worker-side batch response over the same tables.
	merged := struct {
		Responses []json.RawMessage `json:"responses"`
	}{Responses: make([]json.RawMessage, len(results))}
	for i, res := range results {
		merged.Responses[i] = res.body
	}
	r.served.Add(int64(len(results)))
	writeJSON(w, http.StatusOK, merged)
}

// upstreamStatusError carries a worker's non-200 response through the batch
// fan-out so the batch can fail with the sub-request's own status and error
// body.
type upstreamStatusError struct{ res *upstreamResponse }

func (e *upstreamStatusError) Error() string {
	var wire ErrorJSON
	if json.Unmarshal(e.res.body, &wire) == nil && wire.Error.Message != "" {
		return wire.Error.Message
	}
	return fmt.Sprintf("worker returned status %d", e.res.status)
}

// isCancellation reports whether err is a context cancellation — either the
// caller's or the batch's own first-failure cancel.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// writeBatchItemError maps one failed sub-request onto the batch response,
// keeping the sub-request's status and code where it carried one.
func (r *Router) writeBatchItemError(w http.ResponseWriter, ctx context.Context, i int, err error) {
	var ue *upstreamStatusError
	if errors.As(err, &ue) {
		code := "upstream_error"
		var wire ErrorJSON
		if json.Unmarshal(ue.res.body, &wire) == nil && wire.Error.Code != "" {
			code = wire.Error.Code
		}
		if ue.res.retryAfter != "" {
			w.Header().Set("Retry-After", ue.res.retryAfter)
		}
		r.writeError(w, ue.res.status, code, fmt.Sprintf("request %d: %s", i, ue.Error()))
		return
	}
	r.writeRouteErrorPrefixed(w, ctx, err, fmt.Sprintf("request %d: ", i))
}

// route proxies one single-request body to the key's replica set with
// hedging and dead-worker retry, feeding health state and the latency
// tracker from the attempt outcomes.
func (r *Router) route(ctx context.Context, key uint64, path string, body []byte) (*upstreamResponse, error) {
	owners := r.healthyOwners(key)
	if len(owners) == 0 {
		r.noWorkerErrors.Add(1)
		return nil, errNoOwners
	}
	res, hedgeFired, hedgeWon, retries, err := hedgedDo(ctx, owners, r.tracker.delay(), !r.cfg.DisableHedging,
		func(ctx context.Context, owner int) (*upstreamResponse, error) {
			return r.attempt(ctx, r.prober.workers[owners[owner]], path, body)
		},
		func(owner int, d time.Duration, aerr error) {
			ws := r.prober.workers[owners[owner]]
			switch {
			case aerr == nil:
				r.tracker.observe(d)
			case !isCancellation(aerr):
				// A transport failure is health evidence; a cancellation
				// is just the race's loser being told to stand down.
				r.prober.observeFailure(ws, aerr.Error())
			}
		})
	if hedgeFired {
		r.hedgesFired.Add(1)
	}
	if hedgeWon {
		r.hedgesWon.Add(1)
	}
	r.retries.Add(int64(retries))
	if err != nil && !isCancellation(err) && !errors.Is(err, errNoOwners) {
		r.upstreamErrors.Add(1)
	}
	return res, err
}

// healthyOwners is the key's replica set with ejected workers filtered out,
// primary first.
func (r *Router) healthyOwners(key uint64) []int {
	owners := r.ring.owners(key, r.cfg.Replication)
	out := owners[:0]
	for _, o := range owners {
		if r.prober.workers[o].isHealthy() {
			out = append(out, o)
		}
	}
	return out
}

// attempt performs one proxied POST against one worker, buffering the full
// response. A transport error — including a worker dying mid-body, which
// surfaces as a read error before the buffer completes — is the caller's
// signal to retry on the next owner.
func (r *Router) attempt(ctx context.Context, ws *workerState, path string, body []byte) (*upstreamResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ws.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	ws.inflight.Add(1)
	defer ws.inflight.Add(-1)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &upstreamResponse{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        buf,
	}, nil
}

// relay writes a buffered worker response to the client verbatim, preserving
// status, content type and the Retry-After hint of a worker-side 429 — the
// routed wire format IS the worker wire format.
func (r *Router) relay(w http.ResponseWriter, res *upstreamResponse) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// admit mirrors Server.admit at the edge: weighted, non-blocking, 429 with
// the jittered Retry-After on a full router.
func (r *Router) admit(w http.ResponseWriter, n int, key uint64) bool {
	if !r.sem.tryAcquire(n) {
		r.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(key))
		r.writeError(w, http.StatusTooManyRequests, "over_capacity",
			fmt.Sprintf("router is at its in-flight limit of %d table requests", r.cfg.MaxInFlight))
		return false
	}
	return true
}

// writeRouteError maps a routing failure onto the wire: all workers ejected
// -> typed 503 no_workers, caller cancelled -> 499, transport exhausted ->
// 502 upstream_error.
func (r *Router) writeRouteError(w http.ResponseWriter, ctx context.Context, err error) {
	r.writeRouteErrorPrefixed(w, ctx, err, "")
}

func (r *Router) writeRouteErrorPrefixed(w http.ResponseWriter, ctx context.Context, err error, prefix string) {
	switch {
	case errors.Is(err, errNoOwners):
		r.writeError(w, http.StatusServiceUnavailable, "no_workers",
			prefix+"no healthy workers: every replica owning this key is ejected")
	case isCancellation(err) && ctx.Err() != nil:
		r.writeError(w, statusClientClosedRequest, "cancelled", prefix+err.Error())
	default:
		r.writeError(w, http.StatusBadGateway, "upstream_error", prefix+err.Error())
	}
}

func (r *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorJSON{Error: ErrorBodyJSON{Code: code, Message: msg}})
}

// handleHealthz reports the tier's readiness: ok while at least one worker
// takes traffic, the typed no_workers state (503) when the whole fleet is
// ejected.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if r.prober.healthyCount() == 0 {
		writeJSON(w, http.StatusServiceUnavailable, HealthJSON{Status: "no_workers"})
		return
	}
	writeJSON(w, http.StatusOK, HealthJSON{Status: "ok"})
}

// handleStatz merges the fleet's /statz into one view: per-worker snapshots
// fetched concurrently, counters summed, plus the router's own section
// (hedges fired/won, retries, per-worker inflight, ejections). A worker that
// cannot be reached contributes its router-side state only.
func (r *Router) handleStatz(w http.ResponseWriter, req *http.Request) {
	type fetched struct {
		statz StatzJSON
		ok    bool
	}
	snapshots := make([]fetched, len(r.prober.workers))
	var wg sync.WaitGroup
	for i, ws := range r.prober.workers {
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(req.Context(), 2*time.Second)
			defer cancel()
			sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.url+"/statz", nil)
			if err != nil {
				return
			}
			resp, err := r.client.Do(sreq)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			if json.NewDecoder(resp.Body).Decode(&snapshots[i].statz) == nil {
				snapshots[i].ok = true
			}
		}(i, ws)
	}
	wg.Wait()

	out := StatzJSON{
		UptimeMs:    float64(time.Since(r.start)) / float64(time.Millisecond),
		InFlight:    r.sem.inFlight(),
		MaxInFlight: r.cfg.MaxInFlight,
	}
	rf := &RouterFull{
		WorkersTotal:   len(r.prober.workers),
		WorkersHealthy: r.prober.healthyCount(),
		Replication:    r.cfg.Replication,
		HedgeDelayMs:   float64(r.tracker.delay()) / float64(time.Millisecond),
		HedgesFired:    r.hedgesFired.Load(),
		HedgesWon:      r.hedgesWon.Load(),
		Retries:        r.retries.Load(),
		Routed:         r.served.Load(),
		RejectedAtEdge: r.rejected.Load(),
		NoWorkerErrors: r.noWorkerErrors.Load(),
		UpstreamErrors: r.upstreamErrors.Load(),
		Workers:        make([]RouterWorkerJSON, len(r.prober.workers)),
	}
	var cache CacheFull
	haveCache := false
	for i, ws := range r.prober.workers {
		healthy, ejections, lastErr := ws.snapshotStats()
		wj := RouterWorkerJSON{
			URL:       ws.url,
			Healthy:   healthy,
			InFlight:  ws.inflight.Load(),
			Ejections: ejections,
			LastError: lastErr,
		}
		if snapshots[i].ok {
			st := snapshots[i].statz
			wj.Reachable = true
			wj.Served = st.Served
			out.Served += st.Served
			out.Rejected += st.Rejected
			out.Failed += st.Failed
			if st.Search != nil {
				if out.Search == nil {
					out.Search = &SearchFull{IndexDocs: st.Search.IndexDocs, Shards: st.Search.Shards}
				}
				out.Search.Queries += st.Search.Queries
				out.Search.Batches += st.Search.Batches
				out.Search.BatchedQueries += st.Search.BatchedQueries
			}
			if st.Cache != nil {
				haveCache = true
				cache.Hits += st.Cache.Hits
				cache.Misses += st.Cache.Misses
				cache.Entries += st.Cache.Entries
				cache.Evictions += st.Cache.Evictions
				cache.Expirations += st.Cache.Expirations
			}
			if st.Geo != nil {
				if out.Geo == nil {
					out.Geo = &GeoFull{GazetteerLocations: st.Geo.GazetteerLocations}
				}
				out.Geo.Requests += st.Geo.Requests
				out.Geo.CellsResolved += st.Geo.CellsResolved
				out.Geo.Components += st.Geo.Components
				if st.Geo.LargestComponent > out.Geo.LargestComponent {
					out.Geo.LargestComponent = st.Geo.LargestComponent
				}
				if st.Geo.PeakScratchBytes > out.Geo.PeakScratchBytes {
					out.Geo.PeakScratchBytes = st.Geo.PeakScratchBytes
				}
			}
			if out.Snapshot == nil && st.Snapshot != nil {
				snap := *st.Snapshot
				out.Snapshot = &snap
			}
		}
		rf.Workers[i] = wj
	}
	if out.Search != nil && out.Search.Batches > 0 {
		out.Search.AvgBatchSize = float64(out.Search.BatchedQueries) / float64(out.Search.Batches)
	}
	if haveCache {
		if total := cache.Hits + cache.Misses; total > 0 {
			cache.HitRate = float64(cache.Hits) / float64(total)
		}
		out.Cache = &cache
	}
	out.Rejected += r.rejected.Load()
	out.Router = rf
	writeJSON(w, http.StatusOK, out)
}
