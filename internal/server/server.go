// Package server is the HTTP/JSON serving layer over repro.Service — the
// "annotation as a service" surface cmd/serve exposes. It owns the v1 wire
// format (api.go), request validation with typed error responses, and
// admission control: a bounded in-flight semaphore sheds load with 429
// instead of queueing unboundedly, the standard protection for a service
// whose per-request cost is dominated by backend round-trips.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro"
)

// Config configures a Server. The zero value of every limit selects a
// sensible default.
type Config struct {
	// Service handles the annotation requests. Required.
	Service *repro.Service
	// MaxInFlight bounds concurrently-served table annotations; a batch
	// call is weighted by its request count, so the bound holds for real
	// annotation work, not HTTP calls. Work beyond the bound is rejected
	// with 429. Default 64.
	MaxInFlight int
	// MaxCells rejects tables larger than this many cells (rows ×
	// columns) with 413. Default 100000.
	MaxCells int
	// MaxBatch bounds the requests per /v1/annotate:batch call.
	// Default 32, clamped to MaxInFlight (a larger batch could never be
	// admitted).
	MaxBatch int
	// MaxBodyBytes bounds a request body. Default 8 MiB.
	MaxBodyBytes int64
}

// Server routes the v1 API over one repro.Service. The service reference is
// swappable at runtime (Reload): each request loads it exactly once, so a
// swap between requests is invisible and a request in flight finishes
// against the service it started with — zero dropped requests.
type Server struct {
	svc   atomic.Pointer[repro.Service]
	cfg   Config
	sem   semaphore
	start time.Time

	// reloading is true while a Reload is building/loading the replacement
	// service; /healthz reports not-ready for that window so a balancer
	// drains politely ahead of the swap. reloadEpoch counts completed
	// swaps, surfaced on /statz.
	reloading   atomic.Bool
	reloadEpoch atomic.Int64

	served   atomic.Int64
	rejected atomic.Int64
	failed   atomic.Int64

	geoRequests atomic.Int64 // POST /v1/geocode calls served
	geoResolved atomic.Int64 // cells resolved, geocode + annotate paths

	geoComponents  atomic.Int64 // disambiguation components resolved, cumulative
	geoLargestComp atomic.Int64 // largest component seen, in nodes
	geoPeakScratch atomic.Int64 // pooled per-component scratch high-water mark, bytes
}

// raiseMax lifts the atomic to v when v is larger, keeping the running
// maximum under concurrent writers.
func raiseMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// recordGeoStats folds one geocode response's decomposition statistics into
// the server's cumulative geo counters.
func (s *Server) recordGeoStats(st repro.GeoStats) {
	s.geoResolved.Add(int64(st.Resolved))
	s.geoComponents.Add(int64(st.Components))
	raiseMax(&s.geoLargestComp, int64(st.LargestComponent))
	raiseMax(&s.geoPeakScratch, st.PeakScratchBytes)
}

// New builds a Server; it panics when cfg.Service is nil (a wiring bug, not
// a runtime condition).
func New(cfg Config) *Server {
	if cfg.Service == nil {
		panic("server: Config.Service is nil")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 100000
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.MaxBatch > cfg.MaxInFlight {
		cfg.MaxBatch = cfg.MaxInFlight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = maxBodyBytes
	}
	s := &Server{
		cfg:   cfg,
		sem:   newSemaphore(cfg.MaxInFlight),
		start: time.Now(),
	}
	s.svc.Store(cfg.Service)
	return s
}

// Service returns the service currently serving requests.
func (s *Server) Service() *repro.Service { return s.svc.Load() }

// ErrReloadInProgress rejects a Reload that overlaps another: the swap is
// serialised so two concurrent reloads cannot race the epoch.
var ErrReloadInProgress = errors.New("server: a reload is already in progress")

// Reload replaces the serving service with the one build returns, atomically
// and between requests: in-flight requests finish against the service they
// started with, requests admitted after the swap see only the new one, and
// no request is dropped either way. The old service's shared query cache (if
// any) is reset on swap, so verdicts computed against the retired world
// cannot leak into responses via a still-referenced cache. While build runs,
// /healthz reports not-ready and the v1 endpoints keep serving from the old
// service. Only one reload runs at a time; an overlapping call fails fast
// with ErrReloadInProgress. On build error the old service keeps serving.
func (s *Server) Reload(build func() (*repro.Service, error)) error {
	if !s.reloading.CompareAndSwap(false, true) {
		return ErrReloadInProgress
	}
	defer s.reloading.Store(false)
	next, err := build()
	if err != nil {
		return err
	}
	old := s.svc.Swap(next)
	s.reloadEpoch.Add(1)
	if old != nil && old != next {
		if c := old.Lab().Cache; c != nil {
			c.Reset()
		}
	}
	return nil
}

// Handler returns the route table:
//
//	POST /v1/annotate        annotate one table
//	POST /v1/annotate:batch  annotate several tables over the worker pool
//	POST /v1/geocode         geocode + disambiguate one table's Location columns
//	POST /v1/geocode:batch   geocode several tables over the worker pool
//	GET  /healthz            liveness (the service is built and serving)
//	GET  /statz              serving, cache and geo statistics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/annotate", s.handleAnnotate)
	mux.HandleFunc("POST /v1/annotate:batch", s.handleBatch)
	mux.HandleFunc("POST /v1/geocode", s.handleGeocode)
	mux.HandleFunc("POST /v1/geocode:batch", s.handleGeocodeBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	return mux
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request whose client cancelled mid-flight; the write usually goes nowhere,
// but the code keeps access logs honest.
const statusClientClosedRequest = 499

// admit tries to reserve n slots of the bounded in-flight semaphore —
// weighted admission, so a batch of 32 tables costs 32 slots, keeping
// MaxInFlight a bound on real annotation work. Acquisition never blocks: a
// full server sheds the request immediately with 429 and a Retry-After hint
// jittered by the request hash (see retryAfterSeconds), keeping latency flat
// instead of queueing into timeout territory. On success the caller must
// release(n).
func (s *Server) admit(w http.ResponseWriter, n int, key uint64) bool {
	if !s.sem.tryAcquire(n) {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(key))
		s.writeError(w, http.StatusTooManyRequests, "over_capacity",
			fmt.Sprintf("server is at its in-flight limit of %d table annotations", s.cfg.MaxInFlight))
		return false
	}
	return true
}

func (s *Server) release(n int) { s.sem.release(n) }

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var wire AnnotateRequestJSON
	if !s.decodeBody(w, r, &wire) {
		return
	}
	req, status, code, msg := s.prepare(&wire)
	if req == nil {
		s.writeError(w, status, code, msg)
		return
	}
	if !s.admit(w, 1, hashBytes(wire.Table)) {
		return
	}
	defer s.release(1)
	resp, err := s.Service().Annotate(r.Context(), req)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	s.served.Add(1)
	s.geoResolved.Add(int64(len(resp.GeoAnnotations)))
	writeJSON(w, http.StatusOK, toWire(resp))
}

// handleGeocode serves the standalone geocode+disambiguate endpoint. A
// geocode request costs no search-engine queries, but it still occupies one
// admission slot: gazetteer lookups and graph propagation over a large table
// are real work.
func (s *Server) handleGeocode(w http.ResponseWriter, r *http.Request) {
	var wire GeocodeRequestJSON
	if !s.decodeBody(w, r, &wire) {
		return
	}
	req, status, code, msg := s.prepareGeocode(&wire)
	if req == nil {
		s.writeError(w, status, code, msg)
		return
	}
	if !s.admit(w, 1, hashBytes(wire.Table)) {
		return
	}
	defer s.release(1)
	resp, err := s.Service().Geocode(r.Context(), req)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	s.geoRequests.Add(1)
	s.recordGeoStats(resp.Stats)
	writeJSON(w, http.StatusOK, geocodeToWire(resp))
}

// serveBatch is the one batch endpoint behind POST /v1/annotate:batch and
// /v1/geocode:batch — the uniform surface the router proxies: every item
// validates before any work starts (a failure names its index), admission is
// weighted one slot per table, and responses come back in request order. The
// two instantiations differ in types only: B is the wire body (decoded as
// itself, so a malformed body's message names it), prepare converts one wire
// item (a nil request comes with the error triple), table is the item's
// routing bytes, run is the service's batch call, and toWire renders one
// response and records its counters.
func serveBatch[B ~struct {
	Requests []W `json:"requests"`
}, W, Q, R, O any](s *Server, w http.ResponseWriter, r *http.Request,
	prepare func(*W) (req *Q, status int, code, msg string), table func(*W) []byte,
	run func(context.Context, []*Q) ([]*R, error), toWire func(*R) O) {
	var body B
	if !s.decodeBody(w, r, &body) {
		return
	}
	items := (struct {
		Requests []W `json:"requests"`
	})(body).Requests
	if len(items) == 0 {
		s.writeError(w, http.StatusBadRequest, "invalid_request", "requests is empty")
		return
	}
	if len(items) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest, "invalid_request",
			fmt.Sprintf("batch of %d requests exceeds the limit of %d", len(items), s.cfg.MaxBatch))
		return
	}
	reqs := make([]*Q, len(items))
	tables := make([][]byte, len(items))
	for i := range items {
		req, status, code, msg := prepare(&items[i])
		if req == nil {
			s.writeError(w, status, code, fmt.Sprintf("request %d: %s", i, msg))
			return
		}
		reqs[i], tables[i] = req, table(&items[i])
	}
	if !s.admit(w, len(reqs), hashBytes(tables...)) {
		return
	}
	defer s.release(len(reqs))
	resps, err := run(r.Context(), reqs)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	var out struct {
		Responses []O `json:"responses"`
	}
	out.Responses = make([]O, len(resps))
	for i, resp := range resps {
		out.Responses[i] = toWire(resp)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGeocodeBatch(w http.ResponseWriter, r *http.Request) {
	serveBatch[GeocodeBatchRequestJSON](s, w, r, s.prepareGeocode,
		func(wire *GeocodeRequestJSON) []byte { return wire.Table },
		func(ctx context.Context, reqs []*repro.GeocodeRequest) ([]*repro.GeocodeResponse, error) {
			return s.Service().GeocodeBatch(ctx, reqs) // the service serving at admission, not at arrival
		},
		func(resp *repro.GeocodeResponse) GeocodeResponseJSON {
			s.geoRequests.Add(1)
			s.recordGeoStats(resp.Stats)
			return geocodeToWire(resp)
		})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	serveBatch[BatchRequestJSON](s, w, r, s.prepare,
		func(wire *AnnotateRequestJSON) []byte { return wire.Table },
		func(ctx context.Context, reqs []*repro.AnnotateRequest) ([]*repro.AnnotateResponse, error) {
			return s.Service().AnnotateBatch(ctx, reqs)
		},
		func(resp *repro.AnnotateResponse) AnnotateResponseJSON {
			s.served.Add(1)
			s.geoResolved.Add(int64(len(resp.GeoAnnotations)))
			return toWire(resp)
		})
}

// handleHealthz is the readiness signal: "ok" while serving steadily, 503
// "reloading" while a Reload is building its replacement service — a
// balancer can drain the replica ahead of the swap. The v1 endpoints keep
// serving (from the old service) for the whole window either way.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.reloading.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthJSON{Status: "reloading"})
		return
	}
	writeJSON(w, http.StatusOK, HealthJSON{Status: "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	svc := s.Service()
	out := StatzJSON{
		UptimeMs:    float64(time.Since(s.start)) / float64(time.Millisecond),
		InFlight:    len(s.sem),
		MaxInFlight: s.cfg.MaxInFlight,
		Served:      s.served.Load(),
		Rejected:    s.rejected.Load(),
		Failed:      s.failed.Load(),
	}
	out.Snapshot = &SnapshotFull{
		Source:      "built",
		Seed:        svc.Seed(),
		Scale:       svc.Scale(),
		Classifier:  svc.ClassifierName(),
		ReloadEpoch: s.reloadEpoch.Load(),
	}
	if info := svc.Snapshot(); info != nil {
		out.Snapshot.Source = "snapshot"
		out.Snapshot.LoadMs = float64(info.LoadDuration) / float64(time.Millisecond)
	}
	es := svc.Engine().Stats()
	out.Search = &SearchFull{
		IndexDocs:      svc.Engine().IndexSize(),
		Queries:        es.Queries,
		Batches:        es.Batches,
		BatchedQueries: es.BatchedQueries,
		Shards:         es.Shards,
		ShardQueries:   es.ShardQueries,
	}
	if es.Batches > 0 {
		out.Search.AvgBatchSize = float64(es.BatchedQueries) / float64(es.Batches)
	}
	if c := svc.Lab().Cache; c != nil {
		st := c.Stats()
		out.Cache = &CacheFull{
			Hits:        st.Hits,
			Misses:      st.Misses,
			Entries:     st.Entries,
			HitRate:     st.HitRate(),
			Evictions:   st.Evictions,
			Expirations: st.Expirations,
		}
	}
	out.Geo = &GeoFull{
		GazetteerLocations: svc.Geo().Len(),
		Requests:           s.geoRequests.Load(),
		CellsResolved:      s.geoResolved.Load(),
		Components:         s.geoComponents.Load(),
		LargestComponent:   s.geoLargestComp.Load(),
		PeakScratchBytes:   s.geoPeakScratch.Load(),
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeBody strictly decodes the JSON body into dst, writing the typed
// error response itself when decoding fails.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "table_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, "invalid_json", err.Error())
		return false
	}
	return true
}

// tooLarge enforces the server-side table size limit, shared by every route
// that accepts a table so their admission rules cannot drift. bad is true
// with the error triple filled when the table exceeds MaxCells.
func (s *Server) tooLarge(t *repro.Table) (status int, code, msg string, bad bool) {
	if cells := t.NumRows() * t.NumCols(); cells > s.cfg.MaxCells {
		return http.StatusRequestEntityTooLarge, "table_too_large",
			fmt.Sprintf("table has %d cells, limit is %d", cells, s.cfg.MaxCells), true
	}
	return 0, "", "", false
}

// prepare converts one wire request, enforcing the server-side table size
// limit. On failure it returns a nil request plus the error triple.
func (s *Server) prepare(wire *AnnotateRequestJSON) (req *repro.AnnotateRequest, status int, code, msg string) {
	req, err := wire.toRequest()
	if err != nil {
		return nil, http.StatusBadRequest, "invalid_request", err.Error()
	}
	if status, code, msg, bad := s.tooLarge(req.Table); bad {
		return nil, status, code, msg
	}
	return req, 0, "", ""
}

// prepareGeocode is prepare for a geocode request.
func (s *Server) prepareGeocode(wire *GeocodeRequestJSON) (req *repro.GeocodeRequest, status int, code, msg string) {
	req, err := wire.toRequest()
	if err != nil {
		return nil, http.StatusBadRequest, "invalid_request", err.Error()
	}
	if status, code, msg, bad := s.tooLarge(req.Table); bad {
		return nil, status, code, msg
	}
	return req, 0, "", ""
}

// writeServiceError maps a Service error to the wire: *RequestError -> 400,
// context cancellation -> 499, anything else -> 500.
func (s *Server) writeServiceError(w http.ResponseWriter, err error) {
	var reqErr *repro.RequestError
	switch {
	case errors.As(err, &reqErr):
		s.writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, statusClientClosedRequest, "cancelled", err.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	if status >= http.StatusInternalServerError || status == statusClientClosedRequest {
		s.failed.Add(1)
	}
	writeJSON(w, status, ErrorJSON{Error: ErrorBodyJSON{Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encode errors after WriteHeader can only come from a dead client;
	// nothing useful can be written at that point.
	_ = enc.Encode(v)
}
