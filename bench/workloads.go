package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/table"
)

// workloadNames lists the workloads in the order a full set runs them. The
// names are fixed: later issues refer to them.
var workloadNames = []string{"annotate_cold", "annotate_warm", "geocode_huge", "serve_mixed"}

// traceInput is one pool operation as the traced pass needs it: the table
// the layers are replayed on, and for serve_mixed the request as sent.
type traceInput struct {
	geocode bool
	tbl     *table.Table
	tblJSON []byte // the table in wire form, for the table.read_json span
	path    string // serve_mixed only
	body    []byte // serve_mixed only
}

// workload is one set-up workload, ready to be driven.
type workload struct {
	name   string
	do     op
	digest string

	// Closed loop: one visiting order per caller. Open loop: the arrival
	// schedule and the number of senders. Exactly one of the two is set.
	orders  [][]int
	sched   []arrival
	senders int

	// layer reads the program's cumulative counters.
	layer func() layerCounts
	// stop shuts down whatever set-up started and removes what it wrote.
	stop func() error

	// What the traced pass replays against.
	svc     *repro.Service // the in-process service whose layers are replayed
	input   func(i int) traceInput
	routed  string   // serve_mixed: the router's base URL
	workers []string // serve_mixed: the workers' base URLs
	client  *http.Client

	// Set-up's own per-layer numbers.
	worldBuildS, snapWriteS, snapLoadS float64
	snapBytes                          int64
}

// setup builds cfg's workload. ref is the sequential reference service
// (WithParallelism(1), no cache) the output check compares against; for
// serve_mixed it is nil, because that workload's builder plays the part.
func setup(ctx context.Context, cfg config, ref *repro.Service) (*workload, error) {
	switch cfg.workload {
	case "annotate_cold":
		return setupAnnotate(ctx, cfg, ref, false)
	case "annotate_warm":
		return setupAnnotate(ctx, cfg, ref, true)
	case "geocode_huge":
		return setupHuge(ctx, cfg, ref)
	case "serve_mixed":
		return setupServe(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// inProcessLayer reads a service's cache and engine counters directly.
func inProcessLayer(svc *repro.Service) func() layerCounts {
	return func() layerCounts {
		lc := layerCounts{searchQueries: int64(svc.Engine().Stats().Queries)}
		if c := svc.Lab().Cache; c != nil {
			st := c.Stats()
			lc.cacheHits, lc.cacheMisses, lc.cacheEvictions, lc.cacheEntries = st.Hits, st.Misses, st.Evictions, st.Entries
		}
		return lc
	}
}

// setupAnnotate builds annotate_cold (no shared cache: every unique cell
// query pays search, feature extraction and classification) or annotate_warm
// (shared cache, filled by one full pass, so every query is a hit). Both loop
// over the canonical GFT tables.
func setupAnnotate(ctx context.Context, cfg config, ref *repro.Service, warm bool) (*workload, error) {
	opts := []repro.Option{repro.WithSeed(worldSeed), repro.WithParallelism(cfg.clients)}
	if warm {
		opts = append(opts, repro.WithSharedCache())
	}
	svc, err := repro.New(ctx, opts...)
	if err != nil {
		return nil, err
	}
	tables := svc.Lab().GFT.Tables
	m := mask{queries: warm}
	refs := make([]outcome, len(tables))
	wire := make([][]byte, len(tables))
	for i, t := range tables {
		resp, err := ref.Annotate(ctx, &repro.AnnotateRequest{Table: t})
		if err != nil {
			return nil, fmt.Errorf("reference for table %d: %w", i, err)
		}
		refs[i] = annotateOutcome(resp, m)
		wire[i] = tableJSON(t)
	}
	w := &workload{
		name:        cfg.workload,
		digest:      digest(refs),
		layer:       inProcessLayer(svc),
		stop:        func() error { return nil },
		svc:         svc,
		input:       func(i int) traceInput { return traceInput{tbl: tables[i], tblJSON: wire[i]} },
		worldBuildS: svc.BuildDuration().Seconds(),
	}
	w.do = func(i int) (time.Time, int, error) {
		resp, err := svc.Annotate(ctx, &repro.AnnotateRequest{Table: tables[i]})
		done := time.Now()
		if err != nil {
			return done, 0, err
		}
		if got := annotateOutcome(resp, m); !got.equal(&refs[i]) {
			return done, 0, errMismatch
		}
		return done, 0, nil
	}
	for c := 0; c < cfg.clients; c++ {
		w.orders = append(w.orders, tableOrder(cfg.seed, c, len(tables)))
	}
	if warm {
		for i := range tables {
			if _, _, err := w.do(i); err != nil {
				return nil, fmt.Errorf("pre-warming table %d: %w", i, err)
			}
		}
	}
	return w, nil
}

// setupHuge builds geocode_huge: one caller geocoding address tables big
// enough for the streaming geo stage. No search query is issued; gazetteer
// and disambig do all the work.
func setupHuge(ctx context.Context, cfg config, ref *repro.Service) (*workload, error) {
	svc, err := repro.New(ctx, repro.WithSeed(worldSeed))
	if err != nil {
		return nil, err
	}
	tables := hugePool(cfg.seed, newAddressBook(svc.Geo()))
	refs := make([]outcome, len(tables))
	wire := make([][]byte, len(tables))
	for i, t := range tables {
		resp, err := ref.Geocode(ctx, &repro.GeocodeRequest{Table: t})
		if err != nil {
			return nil, fmt.Errorf("reference for table %d: %w", i, err)
		}
		refs[i] = geocodeOutcome(resp, mask{})
		wire[i] = tableJSON(t)
	}
	order := make([]int, len(tables))
	for i := range order {
		order[i] = i
	}
	w := &workload{
		name:        "geocode_huge",
		digest:      digest(refs),
		orders:      [][]int{order},
		layer:       inProcessLayer(svc),
		stop:        func() error { return nil },
		svc:         svc,
		input:       func(i int) traceInput { return traceInput{geocode: true, tbl: tables[i], tblJSON: wire[i]} },
		worldBuildS: svc.BuildDuration().Seconds(),
	}
	w.do = func(i int) (time.Time, int, error) {
		resp, err := svc.Geocode(ctx, &repro.GeocodeRequest{Table: tables[i]})
		done := time.Now()
		if err != nil {
			return done, 0, err
		}
		if got := geocodeOutcome(resp, mask{}); !got.equal(&refs[i]) {
			return done, 0, errMismatch
		}
		return done, 0, nil
	}
	return w, nil
}

// listener is one HTTP server on a loopback port.
type listener struct {
	url string
	srv *http.Server
	err chan error // Serve's return value
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, err: make(chan error, 1)}
	go func() { l.err <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its accept loop to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serveErr := <-l.err; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}

// setupServe builds serve_mixed: real loopback HTTP from the generator
// through the router to two workers. A builder service builds the world and
// writes a TSNP bundle; each worker boots from the bundle with the shared,
// bounded cache; every router and worker setting is cmd/serve's default. The
// builder — sequential, no cache — also computes the reference responses.
func setupServe(ctx context.Context, cfg config) (w *workload, err error) {
	builder, err := repro.New(ctx, repro.WithSeed(worldSeed))
	if err != nil {
		return nil, err
	}
	clients := cfg.clients
	w = &workload{name: "serve_mixed", senders: clients, worldBuildS: builder.BuildDuration().Seconds()}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	var listeners []*listener
	var router *server.Router
	w.stop = func() error {
		var errs []error
		if w.client != nil {
			w.client.CloseIdleConnections()
		}
		// The router goes first: its hedged attempts hold worker connections.
		for i := len(listeners) - 1; i >= 0; i-- {
			errs = append(errs, listeners[i].close())
		}
		if router != nil {
			router.Close()
		}
		errs = append(errs, os.RemoveAll(dir))
		return errors.Join(errs...)
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, w.stop())
		}
	}()

	snap := filepath.Join(dir, "world.tsnp")
	start := time.Now()
	f, err := os.Create(snap)
	if err != nil {
		return nil, err
	}
	w.snapBytes, err = builder.WriteSnapshot(f, "bench")
	if err = errors.Join(err, f.Close()); err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	w.snapWriteS = time.Since(start).Seconds()

	const nWorkers = 2
	var loadS float64
	for i := 0; i < nWorkers; i++ {
		svc, err := repro.New(ctx, repro.WithSnapshot(snap), repro.WithParallelism(clients),
			repro.WithSharedCache(), repro.WithCacheLimits(serveCacheLimit, 0))
		if err != nil {
			return nil, fmt.Errorf("booting worker %d: %w", i, err)
		}
		loadS += svc.BuildDuration().Seconds()
		if i == 0 {
			w.svc = svc
		}
		l, err := listen(server.New(server.Config{Service: svc}).Handler())
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		w.workers = append(w.workers, l.url)
	}
	w.snapLoadS = loadS / nWorkers

	router, err = server.NewRouter(server.RouterConfig{Workers: w.workers})
	if err != nil {
		return nil, err
	}
	front, err := listen(router.Handler())
	if err != nil {
		return nil, err
	}
	listeners = append(listeners, front)
	w.routed = front.url

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients
	tr.MaxConnsPerHost = clients
	w.client = &http.Client{Transport: tr, Timeout: 10 * time.Second}

	pool := servePool(cfg.seed, builder.Lab().GFT.Tables, newAddressBook(builder.Geo()))
	// A worker answers some queries from its cache, so Stats.Queries depends
	// on what ran before; the wire format drops the rest of the mask.
	m := mask{queries: true, wire: true}
	refs := make([]outcome, len(pool))
	wire := make([][]byte, len(pool))
	for i, b := range pool {
		if b.geocode {
			resp, err := builder.Geocode(ctx, &repro.GeocodeRequest{Table: b.tbl})
			if err != nil {
				return nil, fmt.Errorf("reference for body %d: %w", i, err)
			}
			refs[i] = geocodeOutcome(resp, m)
		} else {
			resp, err := builder.Annotate(ctx, &repro.AnnotateRequest{Table: b.tbl})
			if err != nil {
				return nil, fmt.Errorf("reference for body %d: %w", i, err)
			}
			refs[i] = annotateOutcome(resp, m)
		}
		wire[i] = tableJSON(b.tbl)
	}
	w.digest = digest(refs)
	w.sched = schedule(cfg.seed, serveLambda, cfg.warmup+cfg.measure+scheduleSlack, len(pool))
	w.input = func(i int) traceInput {
		return traceInput{geocode: pool[i].geocode, tbl: pool[i].tbl, tblJSON: wire[i], path: pool[i].path, body: pool[i].data}
	}

	w.do = func(i int) (time.Time, int, error) {
		data, err := post(w.client, w.routed+pool[i].path, pool[i].data)
		done := time.Now()
		if err != nil {
			return done, 0, err
		}
		var got outcome
		if pool[i].geocode {
			var resp server.GeocodeResponseJSON
			if err := json.Unmarshal(data, &resp); err != nil {
				return done, len(data), err
			}
			got = wireGeocodeOutcome(&resp)
		} else {
			var resp server.AnnotateResponseJSON
			if err := json.Unmarshal(data, &resp); err != nil {
				return done, len(data), err
			}
			if got, err = wireAnnotateOutcome(&resp, m); err != nil {
				return done, len(data), err
			}
		}
		if !got.equal(&refs[i]) {
			return done, len(data), errMismatch
		}
		return done, len(data), nil
	}
	w.layer = func() layerCounts {
		var st server.StatzJSON
		data, err := get(w.client, w.routed+"/statz")
		if err != nil || json.Unmarshal(data, &st) != nil {
			return layerCounts{}
		}
		lc := layerCounts{shed429: st.Rejected}
		if st.Search != nil {
			lc.searchQueries = int64(st.Search.Queries)
		}
		if st.Cache != nil {
			lc.cacheHits, lc.cacheMisses, lc.cacheEvictions, lc.cacheEntries = st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Entries
		}
		if st.Router != nil {
			lc.hedgesFired, lc.hedgesWon, lc.retries = st.Router.HedgesFired, st.Router.HedgesWon, st.Router.Retries
		}
		return lc
	}
	return w, nil
}

// post sends one JSON body and returns the response body of a 200; any other
// status — a 429 included — is an error.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return readOK(resp)
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	return readOK(resp)
}

func readOK(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode)
	}
	return data, nil
}
