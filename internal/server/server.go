// Package server is the HTTP/JSON serving layer over repro.Service — the
// "annotation as a service" surface cmd/serve exposes. It owns the v1 wire
// format (api.go), request validation with typed error responses, and
// admission control: a bounded in-flight semaphore sheds load with 429
// instead of queueing unboundedly, the standard protection for a service
// whose per-request cost is dominated by backend round-trips. What a tier does
// around the work is written once (edge.go) for the Server and the Router.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
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
}

// Server routes the v1 API over one repro.Service. The service reference is
// swappable at runtime (Reload): each request loads it exactly once, so a
// swap between requests is invisible and a request in flight finishes
// against the service it started with — zero dropped requests.
type Server struct {
	*edge
	svc   atomic.Pointer[repro.Service]
	start time.Time

	// reloading is true while a Reload is building/loading the replacement
	// service; /healthz reports not-ready for that window so a balancer
	// drains politely ahead of the swap. reloadEpoch counts completed
	// swaps, surfaced on /statz.
	reloading   atomic.Bool
	reloadEpoch atomic.Int64

	served atomic.Int64

	geoRequests    atomic.Int64 // POST /v1/geocode tables served
	geoLargestComp atomic.Int64 // largest component seen, in nodes
	geoPeakScratch atomic.Int64 // pooled per-component scratch high-water mark, bytes

	// totals sums the obs record of every v1 request: stage times and work
	// counters, for /statz.
	totals obs.Record
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
	s := &Server{
		edge:  newEdge("server is at its in-flight limit of %d table annotations", cfg.MaxInFlight, cfg.MaxBatch, cfg.MaxCells),
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
// no request is dropped either way. Nothing is invalidated: every service
// owns its shared query cache, so the new one starts cold and the old one
// keeps its verdicts for the requests still running on it. While build runs,
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
	s.svc.Store(next)
	s.reloadEpoch.Add(1)
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

// serveOne is the one single-table endpoint behind POST /v1/annotate and
// /v1/geocode, with serveBatch's parameters: the table step, one admission
// slot (a geocode costs no search query, but gazetteer lookups and graph
// propagation over a large table are real work), the single call, the response.
func serveOne[W, Q, R, O any](s *Server, w http.ResponseWriter, r *http.Request,
	table func(*W) json.RawMessage, request func(*W, *repro.Table) *Q,
	run func(*repro.Service, context.Context, *Q) (*R, error), toWire func(*R) O) {
	clock := obs.New()
	defer s.totals.Merge(clock)
	decode := clock.Start(obs.Decode)
	var wire W
	if !s.decodeBody(w, r, &wire, clock) {
		decode.Stop()
		return
	}
	tbl, bad := s.table(table(&wire))
	clock.Add(obs.TableParses, 1)
	decode.Stop()
	if bad != nil {
		s.reject(w, -1, bad)
		return
	}
	if !s.admit(w, 1, hashBytes(table(&wire))) {
		return
	}
	defer s.release(1)
	resp, err := run(s.Service(), obs.With(r.Context(), clock), request(&wire, tbl))
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	defer clock.Start(obs.Encode).Stop()
	writeJSON(w, http.StatusOK, toWire(resp))
}

// serveBatch is the one batch endpoint behind POST /v1/annotate:batch and
// /v1/geocode:batch — the uniform surface the router proxies: every item
// validates before any work starts (a failure names its index), admission is
// weighted one slot per table, and responses come back in request order. The
// two instantiations differ in types only: B is the wire body (decoded as
// itself, so a malformed body's message names it), table is one wire item's
// table bytes, request joins the item to its parsed table, run is the batch
// call of the service serving at admission (not at arrival), and toWire renders
// one response and records its counters.
func serveBatch[B ~struct {
	Requests []W `json:"requests"`
}, W, Q, R, O any](s *Server, w http.ResponseWriter, r *http.Request,
	table func(*W) json.RawMessage, request func(*W, *repro.Table) *Q,
	run func(*repro.Service, context.Context, []*Q) ([]*R, error), toWire func(*R) O) {
	clock := obs.New()
	defer s.totals.Merge(clock)
	decode := clock.Start(obs.Decode)
	var body B
	if !s.decodeBody(w, r, &body, clock) {
		decode.Stop()
		return
	}
	items := (struct {
		Requests []W `json:"requests"`
	})(body).Requests
	if !s.checkBatch(w, len(items)) {
		decode.Stop()
		return
	}
	reqs := make([]*Q, len(items))
	tables := make([][]byte, len(items))
	for i := range items {
		tables[i] = table(&items[i])
		tbl, bad := s.table(tables[i])
		clock.Add(obs.TableParses, 1)
		if bad != nil {
			decode.Stop()
			s.reject(w, i, bad)
			return
		}
		reqs[i] = request(&items[i], tbl)
	}
	decode.Stop()
	if !s.admit(w, len(reqs), hashBytes(tables...)) {
		return
	}
	defer s.release(len(reqs))
	resps, err := run(s.Service(), obs.With(r.Context(), clock), reqs)
	if err != nil {
		s.writeServiceError(w, err)
		return
	}
	defer clock.Start(obs.Encode).Stop()
	var out struct {
		Responses []O `json:"responses"`
	}
	out.Responses = make([]O, len(resps))
	for i, resp := range resps {
		out.Responses[i] = toWire(resp)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	serveOne(s, w, r, (*AnnotateRequestJSON).table, (*AnnotateRequestJSON).request, (*repro.Service).Annotate, s.annotated)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	serveBatch[BatchRequestJSON](s, w, r, (*AnnotateRequestJSON).table, (*AnnotateRequestJSON).request, (*repro.Service).AnnotateBatch, s.annotated)
}

func (s *Server) handleGeocode(w http.ResponseWriter, r *http.Request) {
	serveOne(s, w, r, (*GeocodeRequestJSON).table, (*GeocodeRequestJSON).request, (*repro.Service).Geocode, s.geocoded)
}

func (s *Server) handleGeocodeBatch(w http.ResponseWriter, r *http.Request) {
	serveBatch[GeocodeBatchRequestJSON](s, w, r, (*GeocodeRequestJSON).table, (*GeocodeRequestJSON).request, (*repro.Service).GeocodeBatch, s.geocoded)
}

// annotated counts one served annotate response and renders it; geocoded is
// its geocode twin.
func (s *Server) annotated(resp *repro.AnnotateResponse) AnnotateResponseJSON {
	s.served.Add(1)
	return toWire(resp)
}

func (s *Server) geocoded(resp *repro.GeocodeResponse) GeocodeResponseJSON {
	s.geoRequests.Add(1)
	raiseMax(&s.geoLargestComp, int64(resp.Stats.LargestComponent))
	raiseMax(&s.geoPeakScratch, resp.Stats.PeakScratchBytes)
	return geocodeToWire(resp)
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
		MaxInFlight: s.maxInFlight,
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
	}
	if c := svc.Cache(); c != nil {
		st := c.Stats()
		out.Cache = &CacheFull{
			Hits:      st.Hits,
			Misses:    st.Misses,
			Entries:   st.Entries,
			Evictions: st.Evictions,
		}
	}
	out.Geo = &GeoFull{
		GazetteerLocations: svc.Geo().Len(),
		Requests:           s.geoRequests.Load(),
		LargestComponent:   s.geoLargestComp.Load(),
		PeakScratchBytes:   s.geoPeakScratch.Load(),
	}
	out.Stages = stagesToWire(s.totals.Wall())
	out.Busy = stagesToWire(s.totals.BusyTimes())
	out.Work = workToWire(s.totals.Work())
	out.ratios()
	writeJSON(w, http.StatusOK, out)
}

// decodeBody strictly decodes the bounded JSON body into dst, writing the
// typed error response itself when decoding fails, and counts the bytes
// decoded on clock.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any, clock *obs.Record) bool {
	dec := json.NewDecoder(limitBody(w, r))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	clock.Add(obs.BodyBytes, dec.InputOffset())
	if err != nil {
		s.writeBodyError(w, err)
		return false
	}
	return true
}

// writeServiceError maps a Service error to the wire: *RequestError -> 400,
// context cancellation -> 499, anything else -> 500.
func (s *Server) writeServiceError(w http.ResponseWriter, err error) {
	var reqErr *repro.RequestError
	switch {
	case errors.As(err, &reqErr):
		s.writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
	case isCancellation(err):
		s.writeError(w, statusClientClosedRequest, "cancelled", err.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}
