// Command benchcluster measures the distributed serving tier's trajectory:
// one process versus a routed N-replica cluster, all booted from the same
// TSNP snapshot, under open-loop Poisson load. Each invocation appends one
// labelled run to BENCH_cluster.json recording
//
//   - saturation goodput of a single worker and of the routed cluster at an
//     offered rate well above capacity (the speedup is the tier's headline:
//     replicas × concurrency capacity, because requests are dominated by the
//     modeled search-API round-trip, not CPU), and
//   - tail latency at a sustainable rate with transient worker stalls
//     injected, hedged versus unhedged — the p999 the hedging exists to cut.
//
// The workload is distinct-valued (every cell unique), defeating the verdict
// cache and forcing the full search path per request, with the engine's
// latency model on: the paper's efficiency analysis (§6.4) holds
// that the remote search API round-trip dominates serving cost, which is
// exactly the regime where horizontal replication pays.
//
// Usage:
//
//	benchcluster -label "PR9 router" [-out BENCH_cluster.json] [-seed 42]
//	             [-replicas 4] [-latency 150ms] [-rows 1]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/load"
	"repro/internal/server"
)

// phase is one load phase's outcome.
type phase struct {
	OfferedRps float64 `json:"offered_rps"`
	Sent       int     `json:"sent"`
	OK         int     `json:"ok"`
	Shed       int     `json:"shed_429"`
	GoodputRps float64 `json:"goodput_rps"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
}

// tail is the hedged-versus-unhedged comparison at the same offered rate
// with transient worker stalls injected.
type tail struct {
	OfferedRps     float64 `json:"offered_rps"`
	HiccupFrac     float64 `json:"hiccup_frac"`
	HiccupStallMs  float64 `json:"hiccup_stall_ms"`
	UnhedgedP50Ms  float64 `json:"unhedged_p50_ms"`
	UnhedgedP999Ms float64 `json:"unhedged_p999_ms"`
	HedgedP50Ms    float64 `json:"hedged_p50_ms"`
	HedgedP999Ms   float64 `json:"hedged_p999_ms"`
	HedgesFired    int64   `json:"hedges_fired"`
	HedgesWon      int64   `json:"hedges_won"`
}

// run is one labelled benchmark invocation.
type run struct {
	Label             string  `json:"label"`
	RecordedAt        string  `json:"recorded_at"` // RFC 3339; CI checks chronology
	Seed              int64   `json:"seed"`
	Replicas          int     `json:"replicas"`
	SearchLatencyMs   float64 `json:"search_latency_ms"`
	WorkerParallel    int     `json:"worker_parallel"`
	WorkerMaxInflight int     `json:"worker_max_inflight"`
	Rows              int     `json:"rows"`
	Single            phase   `json:"single"`
	Cluster           phase   `json:"cluster"`
	Speedup           float64 `json:"speedup_cluster_over_single"`
	Tail              tail    `json:"tail"`
}

type trajectory struct {
	Description string `json:"description"`
	Runs        []run  `json:"runs"`
	// LatestSpeedup mirrors the newest run's speedup for quick reading.
	LatestSpeedup float64 `json:"latest_speedup_cluster_over_single"`
}

// benchConfig sizes the harness; tests shrink it.
type benchConfig struct {
	label    string
	out      string
	seed     int64
	replicas int
	latency  time.Duration
	rows     int

	// Per-replica serving spec — identical for the single reference and
	// every cluster worker, so the comparison is replicas, nothing else.
	parallel    int
	maxInflight int

	// Load sizing: the saturation phases offer satFactor × the probed
	// capacity for satSeconds; the tail phase offers tailFactor × the
	// cluster's measured goodput for tailSeconds.
	satFactor   float64
	satSeconds  float64
	tailFactor  float64
	tailSeconds float64

	// Tail-phase fault model: each worker stalls this fraction of its
	// requests by this much — the transient hiccup hedging exists for.
	hiccupFrac  float64
	hiccupStall time.Duration
}

func defaultConfig() benchConfig {
	return benchConfig{
		out:         "BENCH_cluster.json",
		seed:        42,
		replicas:    4,
		latency:     150 * time.Millisecond,
		rows:        1,
		parallel:    4,
		maxInflight: 8,
		satFactor:   2.5,
		satSeconds:  4,
		tailFactor:  0.5,
		tailSeconds: 8,
		hiccupFrac:  0.02,
		hiccupStall: 1500 * time.Millisecond,
	}
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.label, "label", "", "label for this run (required)")
	flag.StringVar(&cfg.out, "out", cfg.out, "trajectory file to append to")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "system seed")
	flag.IntVar(&cfg.replicas, "replicas", cfg.replicas, "cluster worker count")
	flag.DurationVar(&cfg.latency, "latency", cfg.latency, "modeled search-API round-trip per query")
	flag.IntVar(&cfg.rows, "rows", cfg.rows, "rows per request table")
	flag.Parse()
	if cfg.label == "" {
		fmt.Fprintln(os.Stderr, "benchcluster: -label is required")
		os.Exit(2)
	}
	if err := benchmark(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcluster:", err)
		os.Exit(1)
	}
}

// hiccuper injects transient stalls in front of a worker's handler: each
// request (never a health probe) stalls with probability frac while
// enabled. This is the fault model hedging is designed for — a replica that
// is healthy by every probe but occasionally pauses.
type hiccuper struct {
	next    http.Handler
	enabled *atomic.Bool
	frac    float64
	stall   time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

func (h *hiccuper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.enabled.Load() && r.URL.Path != "/healthz" {
		h.mu.Lock()
		hit := h.rng.Float64() < h.frac
		h.mu.Unlock()
		if hit {
			time.Sleep(h.stall)
		}
	}
	h.next.ServeHTTP(w, r)
}

// serveOn exposes a handler on a loopback port.
func serveOn(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

func benchmark(cfg benchConfig, stdout io.Writer) error {
	// Parse any existing trajectory before paying for the build so a bad
	// -out path fails fast.
	traj := trajectory{
		Description: "distributed serving tier at the canonical small scale (seed 42): open-loop saturation goodput of one worker vs a routed snapshot-booted replica cluster, plus hedged-vs-unhedged p999 under injected worker stalls; runs append chronologically",
	}
	if data, err := os.ReadFile(cfg.out); err == nil {
		if err := json.Unmarshal(data, &traj); err != nil {
			return fmt.Errorf("%s exists but is not a trajectory file: %w", cfg.out, err)
		}
	}

	ctx := context.Background()

	// One world, one snapshot, N+1 replicas: the single reference and every
	// cluster worker boot from the same bundle at the same per-replica spec.
	fmt.Fprintf(stdout, "building world (seed %d) and snapshot...\n", cfg.seed)
	builder, err := repro.New(ctx, repro.WithSeed(cfg.seed))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "benchcluster")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "world.tsnp")
	f, err := os.Create(snap)
	if err != nil {
		return err
	}
	if _, err := builder.WriteSnapshot(f, "cmd/benchcluster"); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	bootReplica := func() (*server.Server, error) {
		svc, err := repro.New(ctx, repro.WithSnapshot(snap), repro.WithParallelism(cfg.parallel))
		if err != nil {
			return nil, err
		}
		// The paper's serving regime: every search query pays the modeled
		// remote round-trip for real, making requests sleep-dominated.
		svc.Engine().Latency = cfg.latency
		return server.New(server.Config{Service: svc, MaxInFlight: cfg.maxInflight}), nil
	}

	single, err := bootReplica()
	if err != nil {
		return err
	}
	singleURL, stopSingle, err := serveOn(single.Handler())
	if err != nil {
		return err
	}
	defer stopSingle()

	var stallEnabled atomic.Bool
	workerURLs := make([]string, cfg.replicas)
	for i := range workerURLs {
		w, err := bootReplica()
		if err != nil {
			return err
		}
		h := &hiccuper{
			next:    w.Handler(),
			enabled: &stallEnabled,
			frac:    cfg.hiccupFrac,
			stall:   cfg.hiccupStall,
			rng:     rand.New(rand.NewSource(cfg.seed + int64(i))),
		}
		url, stop, err := serveOn(h)
		if err != nil {
			return err
		}
		defer stop()
		workerURLs[i] = url
	}
	fmt.Fprintf(stdout, "booted %d workers + 1 single reference from %s\n", cfg.replicas, filepath.Base(snap))

	driver := func(targets []string, n int, rate float64) (*load.Result, error) {
		return load.Run(load.Config{
			Targets: targets, N: n, Rate: rate, Concurrency: cfg.maxInflight,
			Rows: cfg.rows, Seed: cfg.seed, Timeout: 30 * time.Second,
		})
	}
	toPhase := func(res *load.Result, rate float64) phase {
		lats := res.Latencies
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		return phase{
			OfferedRps: rate,
			Sent:       res.Sent,
			OK:         res.OK(),
			Shed:       res.Statuses[http.StatusTooManyRequests],
			GoodputRps: float64(res.OK()) / res.Wall.Seconds(),
			P50Ms:      ms(load.Percentile(lats, 500)),
			P99Ms:      ms(load.Percentile(lats, 990)),
			P999Ms:     ms(load.Percentile(lats, 999)),
		}
	}

	// Closed-loop probe at the worker's own concurrency width: its
	// capacity, used to size the saturating offered rates.
	probe, err := driver([]string{singleURL}, 8*cfg.maxInflight, 0)
	if err != nil {
		return err
	}
	capacity := float64(probe.OK()) / probe.Wall.Seconds()
	if capacity <= 0 {
		return fmt.Errorf("capacity probe produced no goodput")
	}
	fmt.Fprintf(stdout, "probed single-worker capacity: %.1f req/s\n", capacity)

	// Saturation: offer satFactor × capacity (× replicas for the cluster)
	// open-loop; goodput at an offered rate above capacity IS the
	// saturation throughput — the open loop never slows down to match.
	satRateSingle := cfg.satFactor * capacity
	singleRes, err := driver([]string{singleURL}, int(satRateSingle*cfg.satSeconds), satRateSingle)
	if err != nil {
		return err
	}
	singlePhase := toPhase(singleRes, satRateSingle)
	fmt.Fprintf(stdout, "single @ %.0f req/s offered: %.1f ok/s goodput (%d ok, %d shed)\n",
		satRateSingle, singlePhase.GoodputRps, singlePhase.OK, singlePhase.Shed)

	newRouter := func(disableHedging bool) (*server.Router, string, func(), error) {
		rt, err := server.NewRouter(server.RouterConfig{
			Workers:        workerURLs,
			MaxInFlight:    4 * cfg.replicas * cfg.maxInflight,
			DisableHedging: disableHedging,
			ProbeInterval:  250 * time.Millisecond,
		})
		if err != nil {
			return nil, "", nil, err
		}
		url, stop, err := serveOn(rt.Handler())
		if err != nil {
			rt.Close()
			return nil, "", nil, err
		}
		return rt, url, func() { stop(); rt.Close() }, nil
	}

	_, routerURL, stopRouter, err := newRouter(false)
	if err != nil {
		return err
	}
	satRateCluster := cfg.satFactor * capacity * float64(cfg.replicas)
	clusterRes, err := driver([]string{routerURL}, int(satRateCluster*cfg.satSeconds), satRateCluster)
	if err != nil {
		stopRouter()
		return err
	}
	clusterPhase := toPhase(clusterRes, satRateCluster)
	stopRouter()
	fmt.Fprintf(stdout, "cluster (%d replicas) @ %.0f req/s offered: %.1f ok/s goodput (%d ok, %d shed)\n",
		cfg.replicas, satRateCluster, clusterPhase.GoodputRps, clusterPhase.OK, clusterPhase.Shed)

	speedup := 0.0
	if singlePhase.GoodputRps > 0 {
		speedup = clusterPhase.GoodputRps / singlePhase.GoodputRps
	}
	fmt.Fprintf(stdout, "speedup: %.2fx aggregate req/s\n", speedup)

	// Tail phase: a sustainable rate, transient stalls on, hedged vs
	// unhedged over the SAME planned workload (same seed, same schedule).
	tailRate := cfg.tailFactor * clusterPhase.GoodputRps
	tailN := int(tailRate * cfg.tailSeconds)
	stallEnabled.Store(true)
	runTail := func(disableHedging bool) (phase, *server.Router, error) {
		rt, url, stop, err := newRouter(disableHedging)
		if err != nil {
			return phase{}, nil, err
		}
		defer stop()
		res, err := driver([]string{url}, tailN, tailRate)
		if err != nil {
			return phase{}, nil, err
		}
		return toPhase(res, tailRate), rt, nil
	}
	unhedged, _, err := runTail(true)
	if err != nil {
		return err
	}
	hedged, hedgedRouter, err := runTail(false)
	if err != nil {
		return err
	}
	stallEnabled.Store(false)
	fired, won := hedgedRouter.HedgeCounters()
	fmt.Fprintf(stdout, "tail @ %.0f req/s with %.0f%% × %v stalls: p999 unhedged %.0fms vs hedged %.0fms (%d hedges fired, %d won)\n",
		tailRate, 100*cfg.hiccupFrac, cfg.hiccupStall, unhedged.P999Ms, hedged.P999Ms, fired, won)

	r := run{
		Label:             cfg.label,
		RecordedAt:        time.Now().UTC().Format(time.RFC3339),
		Seed:              cfg.seed,
		Replicas:          cfg.replicas,
		SearchLatencyMs:   float64(cfg.latency) / float64(time.Millisecond),
		WorkerParallel:    cfg.parallel,
		WorkerMaxInflight: cfg.maxInflight,
		Rows:              cfg.rows,
		Single:            singlePhase,
		Cluster:           clusterPhase,
		Speedup:           speedup,
		Tail: tail{
			OfferedRps:     tailRate,
			HiccupFrac:     cfg.hiccupFrac,
			HiccupStallMs:  float64(cfg.hiccupStall) / float64(time.Millisecond),
			UnhedgedP50Ms:  unhedged.P50Ms,
			UnhedgedP999Ms: unhedged.P999Ms,
			HedgedP50Ms:    hedged.P50Ms,
			HedgedP999Ms:   hedged.P999Ms,
			HedgesFired:    fired,
			HedgesWon:      won,
		},
	}
	traj.Runs = append(traj.Runs, r)
	traj.LatestSpeedup = speedup

	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.out, append(data, '\n'), 0o644)
}
