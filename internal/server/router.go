package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/pool"
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
// background with ejection and exponential-backoff readmission; what the
// router does around the proxying is the edge the workers run.
type Router struct {
	*edge
	cfg     RouterConfig
	ring    *ring
	prober  *prober
	client  *http.Client
	tracker *latencyTracker
	start   time.Time

	served         atomic.Int64 // proxied requests answered with an upstream response
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
		// No cell bound: a table's size is its owning worker's call.
		edge:    newEdge("router is at its in-flight limit of %d table requests", cfg.MaxInFlight, cfg.MaxBatch, 0),
		cfg:     cfg,
		ring:    newRing(cfg.Workers, ringVirtualNodes),
		prober:  newProber(cfg, client),
		client:  client,
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
	mux.HandleFunc("POST /v1/annotate", r.handleSingle)
	mux.HandleFunc("POST /v1/geocode", r.handleSingle)
	mux.HandleFunc("POST /v1/annotate:batch", r.handleBatch)
	mux.HandleFunc("POST /v1/geocode:batch", r.handleBatch)
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

// readBody buffers the bounded request body, writing the typed error response
// itself on failure.
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(limitBody(w, req))
	if err != nil {
		r.writeBodyError(w, err)
		return nil, false
	}
	return body, true
}

// routeKey takes the table off one single-request body and derives its ring
// key. The router validates only what routing needs — body parses, table
// passes the edge's table step; everything else (unknown fields, bad types,
// size) is the owning worker's call.
func (r *Router) routeKey(body []byte) (uint64, *apiError) {
	var wire struct {
		Table json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return 0, &apiError{status: http.StatusBadRequest, code: "invalid_json", msg: err.Error()}
	}
	tbl, bad := r.table(wire.Table)
	if bad != nil {
		return 0, bad
	}
	return tableKey(tbl), nil
}

// handleSingle proxies one single-table request to the path it came in on:
// route by the table's key, hedge, relay the winning response verbatim.
func (r *Router) handleSingle(w http.ResponseWriter, req *http.Request) {
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	key, bad := r.routeKey(body)
	if bad != nil {
		r.reject(w, -1, bad)
		return
	}
	if !r.admit(w, 1, key) {
		return
	}
	defer r.release(1)
	res, err := r.route(req.Context(), key, req.URL.Path, body)
	if err != nil {
		r.reject(w, -1, routeFailure(req.Context(), err))
		return
	}
	r.served.Add(1)
	r.relay(w, res)
}

// handleBatch splits a batch body into its per-table sub-requests, routes
// each to its own ring owners concurrently (each sub-request body is exactly
// a single-request body for the path without its ":batch"), and merges the
// responses in request order. A failed sub-request fails the whole batch under
// the pool's rule, the one a worker-side batch runs under, with its index and
// its own status.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	var wire struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		r.writeBodyError(w, err)
		return
	}
	n := len(wire.Requests)
	if !r.checkBatch(w, n) {
		return
	}
	keys := make([]uint64, n)
	for i, sub := range wire.Requests {
		key, bad := r.routeKey(sub)
		if bad != nil {
			r.reject(w, i, bad)
			return
		}
		keys[i] = key
	}
	if !r.admit(w, n, hashBytes(body)) {
		return
	}
	defer r.release(n)

	// Every sub-request is in flight at once: the workers' admission, not the
	// router's pool width, bounds the work.
	path := strings.TrimSuffix(req.URL.Path, ":batch")
	results := make([]*upstreamResponse, n)
	if i, err := pool.RunErr(req.Context(), n, n, func(ctx context.Context, i int) (err error) {
		results[i], err = r.route(ctx, keys[i], path, wire.Requests[i])
		if err == nil && results[i].status != http.StatusOK {
			err = upstreamFailure(results[i])
		}
		return err
	}); err != nil {
		r.reject(w, i, routeFailure(req.Context(), err))
		return
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

// upstreamFailure is a worker's non-200 answer to a batch's sub-request,
// which fails the batch with the sub-request's own status, Retry-After and,
// where its body carried them, code and message.
func upstreamFailure(res *upstreamResponse) *apiError {
	bad := &apiError{res.status, "upstream_error", fmt.Sprintf("worker returned status %d", res.status), res.retryAfter}
	var wire ErrorJSON
	if json.Unmarshal(res.body, &wire) == nil {
		if wire.Error.Code != "" {
			bad.code = wire.Error.Code
		}
		if wire.Error.Message != "" {
			bad.msg = wire.Error.Message
		}
	}
	return bad
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

// routeFailure maps a routing failure onto the wire: a worker's own refusal
// (upstreamFailure) as it came, all workers ejected -> typed 503 no_workers,
// caller cancelled -> 499, transport exhausted -> 502 upstream_error.
func routeFailure(ctx context.Context, err error) *apiError {
	var bad *apiError
	switch {
	case errors.As(err, &bad):
		return bad
	case errors.Is(err, errNoOwners):
		return &apiError{status: http.StatusServiceUnavailable, code: "no_workers", msg: "no healthy workers: every replica owning this key is ejected"}
	case isCancellation(err) && ctx.Err() != nil:
		return &apiError{status: statusClientClosedRequest, code: "cancelled", msg: err.Error()}
	default:
		return &apiError{status: http.StatusBadGateway, code: "upstream_error", msg: err.Error()}
	}
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

// fetchStatz reads one worker's /statz within two seconds; ok is false when
// the worker could not be reached or did not answer 200 with a statz body.
func (r *Router) fetchStatz(ctx context.Context, ws *workerState) (statz StatzJSON, ok bool) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.url+"/statz", nil)
	if err != nil {
		return statz, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return statz, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statz, false
	}
	ok = json.NewDecoder(resp.Body).Decode(&statz) == nil
	return statz, ok
}

// handleStatz merges the fleet's /statz into one view: per-worker snapshots
// fetched concurrently and merged by mergeStatz, plus the router's own section
// (hedges fired/won, retries, per-worker inflight, ejections). A worker that
// cannot be reached contributes its router-side state only.
func (r *Router) handleStatz(w http.ResponseWriter, req *http.Request) {
	workers := r.prober.workers
	snapshots := make([]struct {
		statz StatzJSON
		ok    bool
	}, len(workers))
	// A caller that gave up leaves the rest of the fleet unasked, which reads
	// as unreachable in a response nobody receives.
	_ = pool.Run(req.Context(), len(workers), len(workers), func(i int) {
		snapshots[i].statz, snapshots[i].ok = r.fetchStatz(req.Context(), workers[i])
	})

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
	var out StatzJSON
	for i, ws := range r.prober.workers {
		healthy, ejections, lastErr := ws.snapshotStats()
		rf.Workers[i] = RouterWorkerJSON{
			URL:       ws.url,
			Healthy:   healthy,
			InFlight:  ws.inflight.Load(),
			Ejections: ejections,
			LastError: lastErr,
		}
		if snapshots[i].ok {
			rf.Workers[i].Reachable = true
			rf.Workers[i].Served = snapshots[i].statz.Served
			mergeStatz(&out, &snapshots[i].statz)
		}
	}
	out.ratios()
	out.UptimeMs = float64(time.Since(r.start)) / float64(time.Millisecond)
	out.InFlight = len(r.sem)
	out.MaxInFlight = r.maxInFlight
	out.Rejected += r.rejected.Load()
	out.Router = rf
	writeJSON(w, http.StatusOK, out)
}
