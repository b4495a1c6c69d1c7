// Command serve exposes the annotation pipeline as an HTTP/JSON service —
// the paper's algorithm behind the v1 request/response API:
//
//	POST /v1/annotate        annotate one table
//	POST /v1/annotate:batch  annotate several tables over the worker pool
//	POST /v1/geocode         geocode + disambiguate one table's Location columns
//	POST /v1/geocode:batch   geocode several tables over the worker pool
//	GET  /healthz            readiness (503 "reloading" during a hot reload)
//	GET  /statz              serving, snapshot, cache and geo statistics
//
// Usage:
//
//	serve [-addr :8080] [-seed 42] [-scale small|full] [-classifier svm|bayes]
//	      [-parallel 8] [-shards 0] [-share-cache] [-cache-max-entries 0]
//	      [-max-inflight 64] [-max-cells 100000] [-max-batch 32]
//	      [-snapshot-file world.tsnp] [-pprof-addr localhost:6060]
//
// The limits shown are internal/server's defaults (server.Config here,
// server.RouterConfig in router mode); a limit flag left at 0 selects them.
//
// By default the server builds the full system (corpus, index, classifiers)
// before it starts listening; with -snapshot-file it boots from a prebuilt
// TSNP bundle (written by cmd/snapshot) instead, turning the cold start into
// a sequential IO-bound load. Either way, /healthz answering 200 means the
// service is ready.
//
// With -snapshot-file, SIGHUP hot-reloads the bundle: the new file is loaded
// in the background while the old world keeps serving, then swapped in
// atomically between requests — zero dropped requests. The new world brings
// its own, empty shared query cache; requests still running on the old world
// keep the old one. /healthz reports 503 "reloading" for the load window (so
// balancers drain politely) and /statz counts completed swaps in
// snapshot.reload_epoch.
//
// SIGINT/SIGTERM drain in-flight requests and shut down gracefully.
//
// # Router mode
//
// With -router, serve becomes the edge of a replicated cluster instead of a
// worker: it builds no world of its own and proxies the v1 surface to the
// -workers replicas (each a plain serve instance booted from the SAME
// snapshot file). Each table is consistent-hashed by its canonical bytes to
// -replication ring owners; slow requests are hedged to the next owner after
// a p95-tracked delay (first response wins, the loser is cancelled — disable
// with -no-hedge), dead workers are retried once, and a background /healthz
// prober ejects failing workers and readmits them with exponential backoff.
// GET /statz merges the fleet's counters and adds a "router" section.
//
//	serve -router -workers http://h1:8080,http://h2:8080 [-addr :8090]
//	      [-replication 2] [-no-hedge] [-hedge-initial 100ms]
//	      [-probe-interval 1s] [-max-inflight 256] [-max-batch 32]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		seed         = flag.Int64("seed", 42, "system seed")
		scale        = flag.String("scale", repro.ScaleSmall, "system scale: small | full")
		classifier   = flag.String("classifier", repro.ClassifierSVM, "snippet classifier: svm | bayes")
		parallel     = flag.Int("parallel", 8, "annotation parallelism (cell queries and batch tables)")
		shards       = flag.Int("shards", 0, "search index shards (0 = one per CPU, capped at 8; results identical at any count)")
		shareCache   = flag.Bool("share-cache", true, "share query verdicts across requests (cross-table cache)")
		cacheMax     = flag.Int("cache-max-entries", 0, "cap the shared cache's entries, evicting oldest first (0 = unbounded)")
		maxInflight  = flag.Int("max-inflight", 0, "admission control: max concurrently-served table requests (0 = internal/server's default: 64, as a router 256)")
		maxCells     = flag.Int("max-cells", 0, "reject tables larger than this many cells (0 = internal/server's default: 100000)")
		maxBatch     = flag.Int("max-batch", 0, "max requests per /v1/annotate:batch or /v1/geocode:batch call (0 = internal/server's default: 32)")
		snapshotFile = flag.String("snapshot-file", "", "boot from this TSNP bundle instead of building; SIGHUP reloads it")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")

		routerMode    = flag.Bool("router", false, "run as a cluster router instead of a worker (requires -workers)")
		workers       = flag.String("workers", "", "router mode: comma-separated worker base URLs (e.g. http://h1:8080,http://h2:8080)")
		replication   = flag.Int("replication", 0, "router mode: ring owners per table, the hedge/retry replica set (0 = internal/server's default: 2)")
		noHedge       = flag.Bool("no-hedge", false, "router mode: disable tail-latency request hedging")
		hedgeInitial  = flag.Duration("hedge-initial", 0, "router mode: hedge delay before the p95 tracker has samples (0 = internal/server's default: 100ms)")
		probeInterval = flag.Duration("probe-interval", 0, "router mode: worker /healthz poll interval (0 = internal/server's default: 1s)")
	)
	flag.Parse()

	startPprof(*pprofAddr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *routerMode {
		runRouter(ctx, *addr, *workers, server.RouterConfig{
			Replication:    *replication,
			MaxInFlight:    *maxInflight,
			MaxBatch:       *maxBatch,
			DisableHedging: *noHedge,
			HedgeInitial:   *hedgeInitial,
			ProbeInterval:  *probeInterval,
		})
		return
	}

	// Identity flags left at their defaults are not passed alongside a
	// snapshot, so the bundle manifest's values win; explicitly setting
	// them still pins the value (a mismatch refuses at boot).
	var opts []repro.Option
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *snapshotFile == "" || set["seed"] {
		opts = append(opts, repro.WithSeed(*seed))
	}
	if *snapshotFile == "" || set["scale"] {
		opts = append(opts, repro.WithScale(*scale))
	}
	if *snapshotFile == "" || set["classifier"] {
		opts = append(opts, repro.WithClassifier(*classifier))
	}
	if *snapshotFile == "" || set["shards"] {
		opts = append(opts, repro.WithSearchShards(*shards))
	}
	opts = append(opts, repro.WithParallelism(*parallel))
	if *shareCache {
		opts = append(opts, repro.WithSharedCache())
		if *cacheMax != 0 {
			opts = append(opts, repro.WithCacheLimits(*cacheMax, 0))
		}
	}
	if *snapshotFile != "" {
		opts = append(opts, repro.WithSnapshot(*snapshotFile))
	}

	if *snapshotFile != "" {
		fmt.Fprintf(os.Stderr, "serve: loading snapshot %s...\n", *snapshotFile)
	} else {
		fmt.Fprintf(os.Stderr, "serve: building system (scale=%s, seed=%d, classifier=%s)...\n", *scale, *seed, *classifier)
	}
	start := time.Now()
	svc, err := repro.New(ctx, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "serve: system ready in %v (%d docs indexed)\n",
		time.Since(start).Round(time.Millisecond), svc.Engine().IndexSize())

	srv := server.New(server.Config{
		Service:     svc,
		MaxInFlight: *maxInflight,
		MaxCells:    *maxCells,
		MaxBatch:    *maxBatch,
	})
	// SIGHUP hot reload: re-load the bundle in the background and swap it
	// in atomically; the old world serves every request that arrives in
	// the meantime. Without -snapshot-file a SIGHUP is logged and ignored.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *snapshotFile == "" {
				fmt.Fprintln(os.Stderr, "serve: SIGHUP ignored (no -snapshot-file to reload)")
				continue
			}
			fmt.Fprintf(os.Stderr, "serve: SIGHUP: reloading %s...\n", *snapshotFile)
			reloadStart := time.Now()
			err := srv.Reload(func() (*repro.Service, error) {
				return repro.New(context.Background(), opts...)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve: reload failed (old world keeps serving):", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "serve: reload complete in %v\n", time.Since(reloadStart).Round(time.Millisecond))
		}
	}()

	serve(ctx, *addr, srv.Handler(), "serve: ")
}

// serve is how either mode serves: listen on addr, wait for ctx to end
// (SIGINT/SIGTERM), drain in-flight requests for up to 15 s, exit. A listener
// or shutdown failure exits the process with status 1. Every log line starts
// with prefix.
func serve(ctx context.Context, addr string, h http.Handler, prefix string) {
	fail := func(what string, err error) {
		fmt.Fprintln(os.Stderr, prefix+what, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "%slistening on %s\n", prefix, addr)

	select {
	case err := <-errCh:
		fail("listen:", err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "%sshutting down (draining in-flight requests)...\n", prefix)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fail("shutdown:", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail("listen:", err)
	}
	fmt.Fprintf(os.Stderr, "%sbye\n", prefix)
}

// startPprof serves net/http/pprof on its own listener when addr is
// non-empty, keeping the profiling surface off the v1 API address entirely
// (separate port, separate mux — an operator firewalls it independently).
// Profiling is strictly opt-in; the default is no listener at all.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		fmt.Fprintf(os.Stderr, "serve: pprof listening on %s\n", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "serve: pprof:", err)
		}
	}()
}

// runRouter runs the distributed-serving edge: a consistent-hash router over
// the comma-separated worker replicas, with hedging, health probing and edge
// admission as cfg sets them.
func runRouter(ctx context.Context, addr, workers string, cfg server.RouterConfig) {
	for _, w := range strings.Split(workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			cfg.Workers = append(cfg.Workers, strings.TrimRight(w, "/"))
		}
	}
	if len(cfg.Workers) == 0 {
		fmt.Fprintln(os.Stderr, "serve: -router requires -workers with at least one worker URL")
		os.Exit(2)
	}
	router, err := server.NewRouter(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	defer router.Close()

	fmt.Fprintf(os.Stderr, "serve: router over %d workers\n", len(cfg.Workers))
	serve(ctx, addr, router.Handler(), "serve: router ")
}
