// Command bench is the repository's one benchmark (BENCHMARK.json at the
// root names it): four workloads over the table annotator, six end-to-end
// metrics, and a traced pass that attributes time to each layer. README.md
// in this directory is the glossary.
//
// With --workload it runs that one workload in this process and prints, as
// the last line of standard output, the result object BENCHMARK.json's
// contract asks for. Without it, it runs a set — every workload --runs
// times, each run in a child process of its own so that set-up time and peak
// memory are per run — and prints each metric's median with min and max;
// --check runs two sets back to back and fails if they disagree by more than
// a metric's bound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	warmup   time.Duration // the untimed phase
	measure  time.Duration // the measured phase
	trace    bool
	quick    bool
	runs     int
	outDir   string
	clients  int

	stdout, stderr io.Writer
}

const (
	defaultSeconds = 20.0 // BENCHMARK.json's run_seconds
	warmupSeconds  = 3.0
	quickPhase     = 300 * time.Millisecond // --quick: the length of both phases
	setupRepeats   = 3                      // set-ups per run; setup_s is their median
)

// host describes where a run happened; every run prints it.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
}

func describeHost(clients int) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Kernel: "unknown", Clients: clients}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

// result is the object a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Unbounded holds the demoted metrics. With --trace 0 the result line
	// has no room for them; the run prints them on the line before it.
	Unbounded map[string]metricValue `json:"-"`
}

// unboundedPrefix starts the line that carries result.Unbounded.
const unboundedPrefix = "unbounded: "

// maxMedianLagMs is the guard on the open-loop generator. The generator
// shares the process — two cores, here — with the router, both workers and
// the collector, so the slowest hundredth of its dispatches waits out a
// collector cycle (load.sched_lag_p99_ms reads 7-15 ms) exactly as a request
// from outside would wait in the server; latency is taken from the due time,
// so that wait is counted either way. What would falsify a run is a
// generator that is late as a rule: the guard is on the median.
const maxMedianLagMs = 2.0

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg := config{stdout: stdout, stderr: stderr, clients: min(runtime.NumCPU(), 4)}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in this process: "+strings.Join(workloadNames, " | "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: orders tables, draws bodies, ranks and the arrival schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: run the traced pass after the measured phase and report the per-layer metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke run: 0.3 s phases, one set-up, four traced requests, guards off")
	check := fs.Bool("check", false, "run two sets back to back and fail if they disagree by more than a metric's bound")
	fs.IntVar(&cfg.runs, "runs", 3, "runs per workload in a set, seeds 1..runs")
	fs.StringVar(&cfg.outDir, "out", "bench/out", "directory for trace files and the temporary snapshot bundle")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || cfg.runs < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	cfg.trace = *trace == 1
	cfg.warmup = time.Duration(warmupSeconds * float64(time.Second))
	cfg.measure = time.Duration(*seconds * float64(time.Second))
	if cfg.quick {
		cfg.warmup, cfg.measure = quickPhase, quickPhase
	}

	var err error
	switch {
	case cfg.workload != "":
		_, err = runWorkload(context.Background(), cfg)
	case *check:
		err = runCheck(cfg, childRunner)
	default:
		_, err = runSet(cfg, childRunner)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runWorkload is one complete run of one workload: set-up, warm-up, the
// measured phase, the output check, the guards and — with --trace 1 — the
// traced pass. The last line it prints is the result object.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	h := describeHost(cfg.clients)
	fmt.Fprintf(cfg.stdout, "host: nproc=%d GOMAXPROCS=%d %s commit=%s kernel=%s clients=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Kernel, h.Clients)
	goroutinesBefore := runtime.NumGoroutine()

	// The reference service stands outside set-up time: it is the
	// benchmark's, not the program's.
	var ref *repro.Service
	if cfg.workload != "serve_mixed" {
		var err error
		if ref, err = repro.New(ctx, repro.WithSeed(worldSeed)); err != nil {
			return nil, err
		}
	}
	repeats := setupRepeats
	if cfg.quick {
		repeats = 1
	}
	var w *workload
	var setups []float64
	for i := 0; i < repeats; i++ {
		if w != nil {
			if err := w.stop(); err != nil {
				return nil, err
			}
			w = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if w, err = setup(ctx, cfg, ref); err != nil {
			return nil, err
		}
		// Set-up ends when the first request has been served and checked.
		if _, _, err := w.do(0); err != nil {
			return nil, errors.Join(fmt.Errorf("first request: %w", err), w.stop())
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ref = nil
	debug.FreeOSMemory()

	var p *phase
	if len(w.sched) > 0 {
		p = runOpen(w.do, w.sched, w.senders, cfg.warmup, cfg.measure, w.layer)
	} else {
		p = runClosed(w.do, w.orders, cfg.warmup, cfg.measure, w.layer)
	}

	e2e := endToEnd(p, median(setups))
	layers := newMetricSet(perLayerDefs)
	hitRatio, lagP50, executed := countMetrics(layers, w, p)
	var tr *tracer
	var traceErr error
	if cfg.trace {
		tr, traceErr = tracedPass(ctx, w, cfg, h, layers, executed, layers.vals["lat_p50_ms"], p.end.layer.cacheEntries)
	}
	stopErr := w.stop()
	goroutinesEnd := settleGoroutines(goroutinesBefore + cfg.clients + 8)
	layers.set("proc.goroutines_end", float64(goroutinesEnd))
	if err := errors.Join(traceErr, stopErr); err != nil {
		return nil, err
	}

	report(cfg, w, p, e2e, layers)
	if tr != nil {
		printSelfTimes(cfg, tr.spans)
	}

	var invalid []string
	if !cfg.quick {
		if w.name == "serve_mixed" {
			if lagP50 > maxMedianLagMs {
				invalid = append(invalid, fmt.Sprintf("median dispatch lag %.3f ms > %g ms: the generator ran late", lagP50, maxMedianLagMs))
			}
			if shed := p.end.layer.shed429 - p.start.layer.shed429; shed > 0 {
				invalid = append(invalid, fmt.Sprintf("server.shed_429 = %d > 0: the fixed rate is above capacity here", shed))
			}
			if hitRatio < 0.3 || hitRatio > 0.7 {
				invalid = append(invalid, fmt.Sprintf("qcache.hit_ratio = %.3f outside 0.3-0.7: pool and cache sizing are off", hitRatio))
			}
		}
		if limit := goroutinesBefore + cfg.clients + 8; goroutinesEnd > limit {
			invalid = append(invalid, fmt.Sprintf("proc.goroutines_end = %d > %d: goroutines leaked", goroutinesEnd, limit))
		}
	}
	if len(invalid) > 0 {
		// The numbers must not be used: no result line, non-zero exit.
		return nil, fmt.Errorf("run invalid: %s", strings.Join(invalid, "; "))
	}

	res := &result{Attempted: len(p.samples), Failed: p.failed()}
	res.Correct = res.Failed == 0
	var err error
	if cfg.trace {
		res.Metrics, err = layers.values()
	} else {
		res.Metrics, err = e2e.values()
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted == 0 {
		return nil, errors.New("the measured phase completed no operation")
	}
	if !cfg.trace {
		res.Unbounded = map[string]metricValue{}
		for _, d := range demotedDefs {
			res.Unbounded[d.Name] = metricValue{Value: layers.vals[d.Name], Unit: d.Unit}
		}
		also, err := json.Marshal(res.Unbounded)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.stdout, "%s%s\n", unboundedPrefix, also)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.stdout, "%s\n", line)
	return res, nil
}

// settleGoroutines gives closed servers' goroutines a moment to exit and
// returns the count once it is at or below limit, or after one second.
func settleGoroutines(limit int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// countMetrics sets the per-layer metrics that are counts, or come straight
// from the measured phase. It returns the two numbers the guards need and the
// share of a table's unique queries the workload sent to the engine: the
// miss ratio, or all of them without a cache, or none if it never searches.
func countMetrics(m *metricSet, w *workload, p *phase) (hitRatio, lagP50Ms, executed float64) {
	d := func(get func(layerCounts) int64) float64 { return float64(get(p.end.layer) - get(p.start.layer)) }
	correct := float64(len(p.samples) - p.failed())
	hits := d(func(l layerCounts) int64 { return l.cacheHits })
	misses := d(func(l layerCounts) int64 { return l.cacheMisses })
	hitRatio = ratio(hits, hits+misses)
	queries := d(func(l layerCounts) int64 { return l.searchQueries })

	m.set("search.queries_per_table", ratio(queries, correct))
	m.set("qcache.hits", hits)
	m.set("qcache.misses", misses)
	m.set("qcache.hit_ratio", hitRatio)
	m.set("qcache.evictions", d(func(l layerCounts) int64 { return l.cacheEvictions }))
	m.set("server.shed_429", d(func(l layerCounts) int64 { return l.shed429 }))
	m.set("router.hedges_fired", d(func(l layerCounts) int64 { return l.hedgesFired }))
	m.set("router.hedges_won", d(func(l layerCounts) int64 { return l.hedgesWon }))
	m.set("router.retries", d(func(l layerCounts) int64 { return l.retries }))

	var respBytes float64
	for _, s := range p.samples {
		respBytes += float64(s.bytes)
	}
	m.set("server.resp_bytes_per_table", ratio(respBytes, correct))

	// The serve.* latencies exist only where requests cross HTTP.
	var annotate, geocode, all []float64
	if w.routed != "" {
		annotate = p.latenciesMs(func(s sample) bool { return !w.input(s.idx).geocode })
		geocode = p.latenciesMs(func(s sample) bool { return w.input(s.idx).geocode })
		all = p.latenciesMs(nil)
	}
	m.set("serve.annotate_p50_ms", percentile(annotate, 0.50))
	m.set("serve.geocode_p50_ms", percentile(geocode, 0.50))
	m.set("serve.lat_p99_ms", percentile(all, 0.99))
	m.set("serve.lat_p999_ms", percentile(all, 0.999))

	lags := make([]float64, len(p.lags))
	for i, l := range p.lags {
		lags[i] = ms(l)
	}
	lags = sortedCopy(lags)
	m.set("load.sched_lag_p99_ms", percentile(lags, 0.99))
	m.set("load.offered_per_s", ratio(float64(len(p.lags)), p.seconds()))

	m.set("world.build_s", w.worldBuildS)
	m.set("snapshot.write_s", w.snapWriteS)
	m.set("snapshot.load_s", w.snapLoadS)
	m.set("snapshot.bytes", float64(w.snapBytes))

	m.set("proc.alloc_kb_per_table", ratio(float64(p.end.mem.TotalAlloc-p.start.mem.TotalAlloc)/1024, correct))
	m.set("proc.gc_cycles", float64(p.end.mem.NumGC-p.start.mem.NumGC))
	m.set("proc.gc_pause_ms_total", float64(p.end.mem.PauseTotalNs-p.start.mem.PauseTotalNs)/1e6)
	lats := p.latenciesMs(nil)
	m.set("lat_p50_ms", percentile(lats, 0.50))
	m.set("lat_p90_ms", percentile(lats, 0.90))
	m.set("cpu_ms_per_table", ratio(float64(p.end.cpu-p.start.cpu)/float64(time.Millisecond), correct))
	if queries > 0 {
		executed = 1 - hitRatio
	}
	return hitRatio, percentile(lags, 0.50), executed
}

// report prints every metric by name with its unit. Without --trace the
// per-layer metrics that need spans are absent and not printed.
func report(cfg config, w *workload, p *phase, e2e, layers *metricSet) {
	loop := fmt.Sprintf("closed loop, %d callers", len(w.orders))
	if len(w.sched) > 0 {
		loop = fmt.Sprintf("open loop, %.0f req/s offered, %d senders", serveLambda, w.senders)
	}
	fmt.Fprintf(cfg.stdout, "workload: %s seed=%d (%s; warm-up %v, measured %.3f s)\n", w.name, cfg.seed, loop, cfg.warmup, p.seconds())
	fmt.Fprintf(cfg.stdout, "digest: %s\n", w.digest)
	lats := len(p.samples) - p.failed()
	fmt.Fprintf(cfg.stdout, "operations: attempted=%d failed=%d latency_samples=%d p90_has_ten_beyond=%v\n",
		len(p.samples), p.failed(), lats, supportsPercentile(lats, 0.90))
	for _, s := range p.samples {
		if s.err != nil {
			fmt.Fprintf(cfg.stdout, "first failure: pool index %d: %v\n", s.idx, s.err)
			break
		}
	}
	for _, set := range []*metricSet{e2e, layers} {
		for _, def := range set.defs {
			if v, ok := set.vals[def.Name]; ok {
				fmt.Fprintf(cfg.stdout, "  %-34s %16.6g %s\n", def.Name, v, def.Unit)
			}
		}
	}
}

// runner performs one run of one workload and returns its end-to-end result.
// Sets use childRunner; tests substitute an in-process one.
type runner func(cfg config) (*result, error)

// childRunner re-executes this binary for one workload, so the run has a
// process — and with it a set-up time and a peak RSS — of its own.
func childRunner(cfg config) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.measure.Seconds()), "--out", cfg.outDir}
	if cfg.trace {
		args = append(args, "--trace", "1")
	}
	if cfg.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = cfg.stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", cfg.workload, cfg.seed, err)
	}
	if cfg.trace {
		// The traced pass is for reading, not for aggregating.
		fmt.Fprintf(cfg.stdout, "%s", out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line: %w", cfg.workload, cfg.seed, err)
	}
	if len(lines) > 1 {
		if also, ok := strings.CutPrefix(lines[len(lines)-2], unboundedPrefix); ok {
			if err := json.Unmarshal([]byte(also), &res.Unbounded); err != nil {
				return nil, fmt.Errorf("%s seed %d: bad %q line: %w", cfg.workload, cfg.seed, unboundedPrefix, err)
			}
		}
	}
	return &res, nil
}

// setSummary is one set's medians: workload -> end-to-end metric -> median
// over the set's runs.
type setSummary map[string]map[string]float64

// runSet runs every workload cfg.runs times, seeds 1..runs, and prints each
// end-to-end metric, and after them each demoted one, as the median over the
// runs with min and max. With --trace 1 it prints each run's per-layer report
// instead.
func runSet(cfg config, run runner) (setSummary, error) {
	summary := setSummary{}
	for _, name := range workloadNames {
		values := map[string][]float64{}
		attempted, failed := 0, 0
		for seed := int64(1); seed <= int64(cfg.runs); seed++ {
			c := cfg
			c.workload, c.seed = name, seed
			res, err := run(c)
			if err != nil {
				return nil, err
			}
			attempted += res.Attempted
			failed += res.Failed
			for metric, v := range res.Metrics {
				values[metric] = append(values[metric], v.Value)
			}
			for metric, v := range res.Unbounded {
				values[metric] = append(values[metric], v.Value)
			}
		}
		fmt.Fprintf(cfg.stdout, "%s: %d runs, attempted=%d failed=%d\n", name, cfg.runs, attempted, failed)
		if failed > 0 {
			return nil, fmt.Errorf("%s: %d of %d operations failed", name, failed, attempted)
		}
		if cfg.trace {
			continue
		}
		summary[name] = map[string]float64{}
		for _, def := range endToEndDefs {
			v := sortedCopy(values[def.Name])
			summary[name][def.Name] = median(v)
			fmt.Fprintf(cfg.stdout, "  %-20s %14.6g %-4s (min %.6g, max %.6g, quartile spread %.3f)\n",
				def.Name, median(v), def.Unit, v[0], v[len(v)-1], quartileSpread(v))
		}
		for _, def := range demotedDefs {
			if v := sortedCopy(values[def.Name]); len(v) > 0 {
				fmt.Fprintf(cfg.stdout, "  %-20s %14.6g %-4s (min %.6g, max %.6g, quartile spread %.3f; no bound)\n",
					def.Name, median(v), def.Unit, v[0], v[len(v)-1], quartileSpread(v))
			}
		}
	}
	return summary, nil
}

// runCheck runs two sets of the same binary and compares their medians: the
// tool behind "two sets of runs of the same code agree within the bound".
func runCheck(cfg config, run runner) error {
	cfg.trace = false
	var sets [2]setSummary
	for i := range sets {
		fmt.Fprintf(cfg.stdout, "== set %d ==\n", i+1)
		var err error
		if sets[i], err = runSet(cfg, run); err != nil {
			return err
		}
	}
	fmt.Fprintf(cfg.stdout, "== agreement ==\n%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "rel diff", "bound")
	var excess []string
	for _, name := range workloadNames {
		for _, def := range endToEndDefs {
			a, b := sets[0][name][def.Name], sets[1][name][def.Name]
			diff := ratio(b-a, a)
			verdict := ""
			if diff > def.Bound || diff < -def.Bound {
				verdict = "  EXCEEDS"
				excess = append(excess, name+"/"+def.Name)
			}
			fmt.Fprintf(cfg.stdout, "%-14s %-18s %14.6g %14.6g %+9.4f %7.2f%s\n", name, def.Name, a, b, diff, def.Bound, verdict)
		}
	}
	if len(excess) > 0 {
		return fmt.Errorf("sets disagree beyond the bound on %s", strings.Join(excess, ", "))
	}
	return nil
}
