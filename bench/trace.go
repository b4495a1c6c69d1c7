package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/disambig"
	"repro/internal/qcache"
	"repro/internal/table"
	"repro/internal/textproc"
)

// The traced pass times the calls into each layer's public functions from
// outside the program: spans inside the program are a later issue. For a
// seeded sample of the workload's requests, one goroutine replays each
// request as a root span and then, on the same input, each layer call as a
// child span carrying the request's id. A child is therefore measured after
// its parent, not inside it; the parent link says whose time it explains.
//
// There are two passes over the same sample:
//
//   - the latency pass, at the process's normal GOMAXPROCS, times the root
//     alone (and, for serve_mixed, the routed, direct and in-process forms of
//     the same request): its medians are latencies, comparable with the
//     untraced run's;
//   - the busy pass pins the process to one P, so nothing overlaps and a
//     span's wall time is the CPU time it stands for. Every share and every
//     busy_ms metric comes from this pass: they say where a request's CPU
//     goes, which is what bounds throughput when every core is busy.

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Req    int    `json:"req"`
	Pass   string `json:"pass"` // "latency" or "busy"
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	pass  string
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Pass: t.pass, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.dur()
}

// selfTimes returns, by span ID-1, each span's duration minus its children's.
// Children are replayed one after another, so what they cover is the sum of
// their durations. A negative self time means the replay cost more than the
// call it explains; it is reported as measured, not clamped.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// tracedRequest is what the busy pass learned about one request, summed from
// its spans, plus the counts that are not times.
type tracedRequest struct {
	Req      int  `json:"req"`
	Pool     int  `json:"pool_index"`
	Geocode  bool `json:"geocode"`
	Unique   int  `json:"unique_queries"`   // the table's deduplicated cell queries
	Executed int  `json:"executed_queries"` // of those, how many the root sent to the engine

	root                     time.Duration
	search, extract, predict time.Duration
	results, snippets        int
	geocode                  time.Duration
	cells, cands             int
	resolve, build           time.Duration
	interps                  int
	stats                    disambig.Stats
	decode                   time.Duration
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Host     host   `json:"host"`
	// ExecutedFraction is the share of a table's unique queries the workload
	// sends to the engine (1 without a cache, the miss ratio with one); the
	// busy_ms metrics scale the replayed search, extract and predict time by it.
	ExecutedFraction float64         `json:"executed_fraction"`
	Requests         []tracedRequest `json:"requests"`
	Spans            []span          `json:"spans"`
}

const (
	maxTraced = 256 // requests sampled per workload
	// traceBudget caps both passes together, so that a traced run is not
	// much longer than an untraced one.
	traceBudget = 10 * time.Second
	replayBatch = 32 // queries per replayed SearchBatchContext call: the pipeline's own cap
	replayK     = 10 // snippets per query: the service default
)

// traceOrder is the pool indexes the traced pass replays, in order: the first
// caller's visiting order, cycled, or the open-loop schedule's own draws.
func traceOrder(w *workload, n int) []int {
	out := make([]int, 0, n)
	for k := 0; k < n; k++ {
		switch {
		case len(w.sched) > 0:
			if k >= len(w.sched) {
				return out
			}
			out = append(out, w.sched[k].idx)
		default:
			out = append(out, w.orders[0][k%len(w.orders[0])])
		}
	}
	return out
}

// callService runs one input through the in-process service and returns how
// many queries the call sent to the engine.
func callService(ctx context.Context, svc *repro.Service, in traceInput) (int, error) {
	if in.geocode {
		_, err := svc.Geocode(ctx, &repro.GeocodeRequest{Table: in.tbl})
		return 0, err
	}
	resp, err := svc.Annotate(ctx, &repro.AnnotateRequest{Table: in.tbl})
	if err != nil {
		return 0, err
	}
	return resp.Stats.Queries, nil
}

func serviceSpanName(in traceInput) string {
	if in.geocode {
		return "service.geocode"
	}
	return "service.annotate"
}

// explainedQuery extracts the submitted query from one Service.Explain line,
// `T(r,c) "content" query="..." k=...`; ok is false for a skipped cell.
func explainedQuery(line string) (string, bool) {
	_, rest, found := strings.Cut(line, " ")
	if !found {
		return "", false
	}
	content, err := strconv.QuotedPrefix(rest)
	if err != nil {
		return "", false
	}
	rest, found = strings.CutPrefix(rest[len(content):], " query=")
	if !found {
		return "", false
	}
	quoted, err := strconv.QuotedPrefix(rest)
	if err != nil {
		return "", false
	}
	q, err := strconv.Unquote(quoted)
	return q, err == nil
}

// uniqueQueries are a table's cell queries in first-encounter order, as the
// pipeline's plan stage deduplicates them.
func uniqueQueries(lines []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, line := range lines {
		if q, ok := explainedQuery(line); ok && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// latencyPass times each sampled request's root at normal GOMAXPROCS and
// returns the root latencies in milliseconds. For serve_mixed the root is the
// routed POST, and the same body is then sent to worker 0 directly and run in
// process on worker 0's service; both workers are sent the body once first,
// untimed, so all three timed forms find the same, warm, cache.
func latencyPass(ctx context.Context, w *workload, tr *tracer, sample []int, deadline time.Time) (rootMs, hopMs, serverSelfMs []float64, err error) {
	tr.pass = "latency"
	for k, idx := range sample {
		if k > 0 && time.Now().After(deadline) {
			break
		}
		in, req := w.input(idx), k+1
		// timed runs one form of the request as a span and returns its ID.
		timed := func(name string, parent int, call func() error) int {
			id := tr.begin(name, parent, req)
			callErr := call()
			tr.end(id)
			if callErr != nil && err == nil {
				err = fmt.Errorf("traced request %d: %s: %w", req, name, callErr)
			}
			return id
		}
		inProcess := func() error { _, e := callService(ctx, w.svc, in); return e }
		postTo := func(base string) func() error {
			return func() error { _, e := post(w.client, base+in.path, in.body); return e }
		}
		if w.routed == "" {
			root := timed(serviceSpanName(in), 0, inProcess)
			rootMs = append(rootMs, ms(tr.spans[root-1].dur()))
		} else {
			for _, worker := range w.workers {
				if e := postTo(worker)(); e != nil && err == nil {
					err = fmt.Errorf("traced request %d: warming: %w", req, e)
				}
			}
			routed := timed("http.routed", 0, postTo(w.routed))
			direct := timed("http.direct", routed, postTo(w.workers[0]))
			call := timed(serviceSpanName(in), direct, inProcess)
			// The self times of the routed and the direct span: what the router
			// hop and the worker's HTTP layer add around the call they wrap.
			rootMs = append(rootMs, ms(tr.spans[routed-1].dur()))
			hopMs = append(hopMs, ms(tr.spans[routed-1].dur()-tr.spans[direct-1].dur()))
			serverSelfMs = append(serverSelfMs, ms(tr.spans[direct-1].dur()-tr.spans[call-1].dur()))
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return rootMs, hopMs, serverSelfMs, nil
}

// busyPass replays each sampled request and its layer calls on one P.
// replaySearch is false when the workload sends no query to the engine, so
// there is nothing to attribute to search, extraction or classification.
func busyPass(ctx context.Context, w *workload, tr *tracer, sample []int, replaySearch bool, deadline time.Time) ([]tracedRequest, error) {
	tr.pass = "busy"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	engine, geo := w.svc.Engine(), w.svc.Geo()
	clf := w.svc.Classifier(w.svc.ClassifierName())
	var ex textproc.Extractor
	var out []tracedRequest
	for k, idx := range sample {
		if k > 0 && time.Now().After(deadline) {
			break
		}
		in := w.input(idx)
		r := tracedRequest{Req: k + 1, Pool: idx, Geocode: in.geocode}

		root := tr.begin(serviceSpanName(in), 0, r.Req)
		executed, err := callService(ctx, w.svc, in)
		r.root = tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", r.Req, err)
		}
		r.Executed = executed

		if !in.geocode && replaySearch {
			lines, err := w.svc.Explain(ctx, &repro.AnnotateRequest{Table: in.tbl})
			if err != nil {
				return nil, fmt.Errorf("traced request %d: explain: %w", r.Req, err)
			}
			queries := uniqueQueries(lines)
			r.Unique = len(queries)
			for lo := 0; lo < len(queries); lo += replayBatch {
				id := tr.begin("search.batch", root, r.Req)
				lists, err := engine.SearchBatchContext(ctx, queries[lo:min(lo+replayBatch, len(queries))], replayK)
				r.search += tr.end(id)
				if err != nil {
					return nil, fmt.Errorf("traced request %d: search: %w", r.Req, err)
				}
				for _, results := range lists {
					r.results += len(results)
					for _, res := range results {
						id := tr.begin("textproc.extract", root, r.Req)
						f := ex.Extract(res.Snippet)
						r.extract += tr.end(id)
						id = tr.begin("classify.predict", root, r.Req)
						clf.Predict(f)
						r.predict += tr.end(id)
						r.snippets++
					}
				}
			}
		}

		// The geo stage: Service.Geocode's whole job, and inside
		// Service.Annotate the spatial context of tables with Location columns.
		var interps []disambig.Interpretation
		for _, j := range in.tbl.ColumnIndexesOfType(table.Location) {
			for i := 1; i <= in.tbl.NumRows(); i++ {
				id := tr.begin("gazetteer.geocode", root, r.Req)
				cands := geo.Geocode(in.tbl.Cell(i, j))
				r.geocode += tr.end(id)
				r.cells++
				r.cands += len(cands)
				if len(cands) > 0 {
					interps = append(interps, disambig.Interpretation{Cell: disambig.CellRef{Row: i, Col: j}, Candidates: cands})
				}
			}
		}
		if r.interps = len(interps); r.interps > 0 {
			id := tr.begin("disambig.resolve", root, r.Req)
			_, _, r.stats = disambig.ResolveScoresOpt(interps, geo, disambig.Options{})
			r.resolve = tr.end(id)
			// Graph construction alone, the figure BENCH_geo.json tracks. The
			// resolver builds its own per-component graphs, so this span
			// explains none of the root's time and has no parent.
			id = tr.begin("disambig.build_graph", 0, r.Req)
			disambig.BuildGraph(interps, geo)
			r.build = tr.end(id)
		}

		// Decoding the table is the server's first step; in process it is
		// not part of the root, so the span has no parent.
		id := tr.begin("table.read_json", 0, r.Req)
		_, err = table.ReadJSON(bytes.NewReader(in.tblJSON))
		r.decode = tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("traced request %d: decode: %w", r.Req, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// cacheGetNs times qcache.Get on a cache of the live cache's size, over keys
// shaped like the pipeline's (a configuration prefix, then the cell query).
func cacheGetNs(entries int, w *workload, sample []int) float64 {
	if entries == 0 {
		return 0
	}
	prefix := "svm\x00k=10\x00ct=0\x00" + strings.Join(repro.Types(), ",") + "\x00"
	var keys []string
	for _, idx := range sample {
		t := w.input(idx).tbl
		for _, row := range t.Rows {
			for _, cell := range row {
				keys = append(keys, prefix+cell)
			}
		}
		if len(keys) >= entries {
			break
		}
	}
	if len(keys) == 0 {
		return 0
	}
	c := qcache.New()
	for _, k := range keys {
		c.Put(k, qcache.Verdict{OK: true})
	}
	for i := 0; c.Len() < entries; i++ {
		c.Put(keys[i%len(keys)]+"#"+strconv.Itoa(i), qcache.Verdict{OK: true})
	}
	const lookups = 200000
	start := time.Now()
	for i := 0; i < lookups; i++ {
		c.Get(keys[i%len(keys)])
	}
	return float64(time.Since(start).Nanoseconds()) / lookups
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedPass runs both passes, writes the trace file, sets every per-layer
// metric that comes from spans and returns the spans. executedFraction is the measured
// phase's share of unique queries that reached the engine; untracedP50Ms is
// the measured phase's median latency.
func tracedPass(ctx context.Context, w *workload, cfg config, h host, m *metricSet, executedFraction, untracedP50Ms float64, cacheEntries int) (*tracer, error) {
	n := maxTraced
	if cfg.quick {
		n = 4
	}
	sample := traceOrder(w, n)
	tr := &tracer{t0: time.Now()}
	budget := min(cfg.measure, traceBudget)

	rootMs, hopMs, serverSelfMs, err := latencyPass(ctx, w, tr, sample, tr.t0.Add(budget/4))
	if err != nil {
		return nil, err
	}
	reqs, err := busyPass(ctx, w, tr, sample, executedFraction > 0, tr.t0.Add(budget))
	if err != nil {
		return nil, err
	}

	var total, search, extract, predict, geoTime, decode, build, resolve time.Duration
	var unique, results, snippets, cells, cands, interps, geoTables int
	var nodes, components, largest int
	var scratch int64
	f := executedFraction
	for _, r := range reqs {
		// The root ran r.Executed of the table's r.Unique queries; the
		// workload runs the fraction f of them. Both are the same on a
		// workload without a cache (all) and on a warm one (none); on
		// serve_mixed the replayed root finds a warmer cache than the
		// measured phase did, and the difference is added back.
		replay := r.search + r.extract + r.predict
		total += r.root + time.Duration(float64(replay)*(f-ratio(float64(r.Executed), float64(r.Unique))))
		search += r.search
		extract += r.extract
		predict += r.predict
		unique += r.Unique
		results += r.results
		snippets += r.snippets
		geoTime += r.geocode + r.resolve
		cells += r.cells
		cands += r.cands
		decode += r.decode
		if r.interps > 0 {
			geoTables++
			interps += r.interps
			build += r.build
			resolve += r.resolve
			nodes += r.stats.Nodes
			components += r.stats.Components
			largest = max(largest, r.stats.LargestComponent)
			scratch = max(scratch, r.stats.PeakScratchBytes)
		}
	}
	tables := float64(len(reqs))
	busy := func(d time.Duration) float64 { return ms(d) * f }
	self := ms(total) - busy(search) - busy(extract) - busy(predict) - ms(geoTime)

	m.set("search.us_per_query", ratio(us(search), float64(unique)))
	m.set("search.results_per_query", ratio(float64(results), float64(unique)))
	m.set("search.busy_ms_per_table", ratio(busy(search), tables))
	// A count: the queries the measured phase sent, times what a query returns.
	m.set("textproc.snippets_per_table", m.vals["search.queries_per_table"]*ratio(float64(results), float64(unique)))
	m.set("textproc.extract_us_per_snippet", ratio(us(extract), float64(snippets)))
	m.set("textproc.busy_ms_per_table", ratio(busy(extract), tables))
	m.set("classify.predict_us_per_snippet", ratio(us(predict), float64(snippets)))
	m.set("classify.busy_ms_per_table", ratio(busy(predict), tables))
	m.set("annotate.total_ms_per_table", ratio(ms(total), tables))
	m.set("annotate.self_ms_per_table", ratio(self, tables))
	m.set("annotate.share_search", ratio(busy(search), ms(total)))
	m.set("annotate.share_textproc", ratio(busy(extract), ms(total)))
	m.set("annotate.share_classify", ratio(busy(predict), ms(total)))
	m.set("annotate.share_geo", ratio(ms(geoTime), ms(total)))
	m.set("annotate.share_self", ratio(self, ms(total)))
	m.set("gazetteer.geocode_us_per_cell", ratio(us(geoTime-resolve), float64(cells)))
	m.set("gazetteer.candidates_per_cell", ratio(float64(cands), float64(cells)))
	m.set("disambig.build_ms", ratio(ms(build), float64(geoTables)))
	m.set("disambig.resolve_ms", ratio(ms(resolve), float64(geoTables)))
	m.set("disambig.us_per_cell", ratio(us(resolve), float64(interps)))
	m.set("disambig.nodes", ratio(float64(nodes), float64(geoTables)))
	m.set("disambig.components", ratio(float64(components), float64(geoTables)))
	m.set("disambig.largest_component", float64(largest))
	m.set("disambig.peak_scratch_bytes", float64(scratch))
	m.set("table.decode_us_per_table", ratio(us(decode), tables))
	m.set("server.self_ms", median(serverSelfMs))
	m.set("router.hop_ms", median(hopMs))
	m.set("qcache.get_ns", cacheGetNs(cacheEntries, w, sample))
	overhead := 0.0
	if untracedP50Ms > 0 && len(rootMs) > 0 {
		overhead = median(rootMs)/untracedP50Ms - 1
	}
	m.set("proc.trace_overhead_frac", overhead)

	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	data, err := json.Marshal(traceFile{Workload: w.name, Seed: cfg.seed, Host: h, ExecutedFraction: f, Requests: reqs, Spans: tr.spans})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.stdout, "trace: %d requests, %d spans -> %s\n", len(reqs), len(tr.spans), path)
	return tr, nil
}

// printSelfTimes summarises the busy pass by span name: calls, total time
// and self time.
func printSelfTimes(cfg config, spans []span) {
	type row struct {
		name        string
		calls       int
		total, self time.Duration
	}
	byName := map[string]*row{}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Pass != "busy" {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			byName[s.Name] = r
		}
		r.calls++
		r.total += s.dur()
		r.self += self[i]
	}
	rows := make([]*row, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	fmt.Fprintf(cfg.stdout, "  %-22s %9s %12s %12s\n", "span (busy pass)", "calls", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(cfg.stdout, "  %-22s %9d %12.3f %12.3f\n", r.name, r.calls, ms(r.total), ms(r.self))
	}
}
