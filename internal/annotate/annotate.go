package annotate

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/gazetteer"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/table"
	"repro/internal/textproc"
)

// Searcher is the one query interface the annotator needs from a search
// backend (steps 1-2 of the §5 algorithm): the top-k results for each query
// of a batch, positionally. The execute stage submits a table's deduped cell
// queries in chunks, amortizing the backend's per-call setup, traced or not;
// only the TIS baseline submits batches of one. A backend should return
// ctx.Err() once ctx is done, abandoning in-flight work (a simulated or real
// network round-trip). The built-in *search.Engine implements it; any other
// backend (a remote API, a mock, a different ranking substrate) plugs in the
// same way, and SearchFunc adapts a plain per-query function. Implementations
// must be safe for concurrent use — chunks fan out over a worker pool when
// Parallelism > 1.
type Searcher interface {
	SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error)
}

// SearchFunc adapts a per-query function to Searcher: a batch is the function
// applied query by query, with cancellation checked between queries.
type SearchFunc func(query string, k int) []search.Result

func (f SearchFunc) SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error) {
	out := make([][]search.Result, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = f(q, k)
	}
	return out, nil
}

// Annotation marks one cell as naming an entity of a type, with the Eq. 1
// confidence score S_ij = s_t / k.
type Annotation struct {
	Row   int // 1-based, the paper's i
	Col   int // 1-based, the paper's j
	Type  string
	Score float64
}

// CellKey addresses a cell with the paper's 1-based (row, column) indexes.
type CellKey struct {
	Row, Col int
}

// Result is the output of annotating one table.
type Result struct {
	Annotations []Annotation
	// ColumnScores maps type -> column -> the Eq. 2 global score S_j;
	// populated when post-processing ran.
	ColumnScores map[string]map[int]float64
	// Skipped counts pre-processing eliminations per reason.
	Skipped map[SkipReason]int
	// Queries is the number of search-engine queries issued for this
	// table (after the per-table deduplication and, when configured, the
	// shared cross-table cache).
	Queries int
	// CacheHits counts unique cell queries answered by the shared
	// cross-table cache (Config.Cache); zero when no cache is set.
	CacheHits int
	// CacheMisses counts unique cell queries the shared cache could not
	// answer — each one cost a search-engine round-trip; zero when no
	// cache is set.
	CacheMisses int
	// Batches is the number of backend batch calls the execute stage
	// issued for this table. Without a shared cache the count is fixed by
	// the workload (query count and parallelism); with one, only chunks
	// containing at least one miss reach the backend, so — like
	// CacheMisses — the count depends on what earlier tables cached.
	Batches int
	// Trace holds one explanation per cell in column-major order when the
	// run was traced (Run.AnnotateTraced); nil otherwise. It shows the raw
	// decisions, before post-processing.
	Trace []CellExplanation
}

// Config is the immutable configuration of one annotation run — the §5
// pipeline's every knob, fixed before the run starts. A Config value is
// never mutated by the pipeline, so one Config may drive any number of
// concurrent runs, and a per-request variant (different Γ, k or toggles) is
// derived by copying the value and adjusting fields BEFORE the run — the
// expensive components (classifier, search backend, gazetteer) are shared by
// reference and never rebuilt.
//
// The pipeline is organised in three stages (see DESIGN.md): plan collects
// the unique cell queries after pre-processing and spatial augmentation,
// execute resolves them against the search backend (optionally over a worker
// pool and through the shared verdict cache), and merge applies the verdicts
// back to the cells in deterministic row/column order before post-processing.
// Results are identical at every Parallelism setting, with one carve-out:
// Result.Batches counts backend batch calls, and the chunking follows the
// worker count, so that statistic (and only that one) varies with
// Parallelism.
type Config struct {
	// Searcher is the search backend (steps 1-2 of the algorithm). Any
	// Searcher works; the built-in *search.Engine is the usual choice.
	Searcher Searcher
	// Classifier labels snippets with a type from Γ (step 3).
	Classifier classify.Classifier
	// Types is Γ, the target types.
	Types []string
	// K is the number of snippets fetched per query; 0 selects 10, the
	// paper's setting.
	K int
	// Postprocess enables the §5.3 spurious-annotation elimination.
	Postprocess bool
	// Disambiguate enables the §5.2.2 spatial query augmentation; it
	// requires Gazetteer.
	Disambiguate bool
	// Gazetteer geocodes Location-column cells for disambiguation and for
	// the opt-in GeoAnnotate stage: the immutable gazetteer.Frozen a
	// gazetteer.Builder freezes into, or one loaded from a snapshot.
	Gazetteer *gazetteer.Frozen
	// ClusterThreshold, when positive, replaces the flat majority rule
	// of Eq. 1 with the cluster-separated decision the paper leaves as
	// future work (§5.2): snippets are clustered by cosine similarity
	// (leader clustering at this threshold) and the dominant cluster is
	// classified on its own, so a minority sense cannot poison the vote.
	// 0 disables clustering. A reasonable value is 0.4.
	ClusterThreshold float64

	// Parallelism bounds the execute-stage worker pool that fans cell
	// queries out to the search backend; values <= 1 run sequentially.
	// The merge stage is order-preserving, so annotations, scores and
	// query counts are identical at every setting.
	Parallelism int
	// Cache, when non-nil, shares query verdicts across tables and
	// corpus runs: a unique cell query answered by the cache costs no
	// search-engine round-trip. Cache keys incorporate k, the type set,
	// the decision rule and CacheSalt, so configurations that differ in
	// any of those never exchange verdicts through a shared Cache — but
	// the classifier and the search backend cannot be fingerprinted, so
	// configurations that differ in either MUST set distinct CacheSalt
	// values.
	Cache *qcache.Cache
	// CacheSalt namespaces this configuration's entries inside a shared
	// Cache (e.g. "svm" vs "bayes", or per search backend). Ignored
	// when Cache is nil.
	CacheSalt string
}

func (c Config) k() int {
	if c.K > 0 {
		return c.K
	}
	return 10
}

// typeSet returns Γ as a set for membership checks.
func (c Config) typeSet() map[string]struct{} {
	s := make(map[string]struct{}, len(c.Types))
	for _, t := range c.Types {
		s[t] = struct{}{}
	}
	return s
}

// Run is one table's pass through the pipeline under one Config: what
// Config.For returns. Its Annotate, AnnotateTraced and GeoAnnotate share one
// geocode+vote resolution of the table, computed by whichever of them needs it
// first and handed to the rest, so a request wanting several of them resolves
// its table's geography once. The resolution belongs to this table because the
// Run holds both. A Run serves one request: unlike the Config it is not safe
// for concurrent use.
type Run struct {
	cfg Config
	t   *table.Table
	geo *geoResolution // nil until first needed, then never nil
}

// For starts a run of the pipeline over one table.
func (c Config) For(t *table.Table) *Run { return &Run{cfg: c, t: t} }

// Annotate runs pre-processing, annotation and (optionally) post-processing
// over one table and returns every cell-level annotation. This is the
// context-first entry point of the pipeline: the plan stage checks ctx while
// geocoding and voting, the execute stage between chunks (and hands it to the
// backend), and the run returns ctx.Err() once the context is done — never a
// silently-truncated Result.
func (c Config) Annotate(ctx context.Context, t *table.Table) (*Result, error) {
	return c.For(t).Annotate(ctx)
}

// Annotate is Config.Annotate over the run's table.
func (r *Run) Annotate(ctx context.Context) (*Result, error) {
	return r.annotateExcluding(ctx, nil, false)
}

// AnnotateTraced is Annotate that also explains every cell in Result.Trace,
// recorded by the same plan, execute and merge. A verdict keeps no votes, so a
// traced run neither reads nor fills the shared Cache.
func (r *Run) AnnotateTraced(ctx context.Context) (*Result, error) {
	return r.annotateExcluding(ctx, nil, true)
}

// AnnotateBatch annotates a batch of tables, fanning whole tables out over
// the Parallelism-bounded worker pool. Results are returned in input order;
// annotations and scores are identical to annotating each table alone. With a
// shared Cache, the cache's singleflight guarantees one backend query per
// unique key, so batch-wide query and hit/miss totals are fixed too — though
// which table's Result records a given miss can vary under concurrency. The
// batch fails under pool.RunErr's rule: the first failure cancels the rest,
// the lowest-indexed error that is not a cancellation wins, and otherwise the
// context's own error comes back.
func (c Config) AnnotateBatch(ctx context.Context, tables []*table.Table) ([]*Result, error) {
	out := make([]*Result, len(tables))
	if _, err := pool.RunErr(ctx, c.Parallelism, len(tables), func(ctx context.Context, i int) (err error) {
		out[i], err = c.Annotate(ctx, tables[i])
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// annotateExcluding runs the three pipeline stages over the run's table,
// leaving the given cells untouched (the hybrid annotator uses the exclusion to
// send only catalogue-unknown cells to the search engine), and records the
// trace when traced is set. The error is non-nil only when ctx is cancelled or
// the backend fails, in which case the partial result is discarded.
func (r *Run) annotateExcluding(ctx context.Context, exclude map[CellKey]bool, traced bool) (*Result, error) {
	// Check up front so cancellation holds even when every query would
	// be answered by a warm cache and the execute stage never blocks.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	clock := obs.From(ctx)
	span := clock.Start(obs.Plan)
	p, err := r.plan(ctx, exclude, traced)
	if err != nil {
		span.Stop()
		return nil, err
	}
	cfg := r.cfg
	var rec []CellExplanation
	if traced {
		cfg.Cache = nil
		rec = make([]CellExplanation, len(p.unique))
	}
	res := &Result{Skipped: p.skipped}
	// The fan-out is the Search stage, of which the chunks' measured decision
	// share then moves to Decide.
	span = span.Next(obs.Search)
	var work chunkWork
	verdicts, err := cfg.execute(ctx, p.unique, res, rec, &work)
	span = span.Next(obs.Merge)
	searched, decided := time.Duration(work.search.Load()), time.Duration(work.decide.Load())
	clock.Apportion(obs.Search, obs.Decide, decided, searched+decided)
	if err != nil {
		span.Stop()
		return nil, err
	}
	cfg.merge(r.t, p, verdicts, rec, res)
	span.Stop()
	return res, nil
}

// cellQuery is one annotatable cell paired with the index, in the plan's
// unique list, of its (possibly spatially augmented) search query — the unit
// of work the plan stage emits.
type cellQuery struct {
	cell  CellKey
	query int
}

// tablePlan is the plan stage's output: the annotatable cells in column-major
// order, the deduplicated queries in first-encounter order (so the execute
// stage issues them exactly as the original sequential pipeline did), the
// pre-processing skip counts and, traced, every cell's explanation so far.
type tablePlan struct {
	cells   []cellQuery
	unique  []string
	skipped map[SkipReason]int
	trace   []CellExplanation
}

// lowerCities returns each row's city lower-cased, indexed by 1-based row: the
// augmentation compares case-insensitively, once per row, not once per cell.
func lowerCities(cityByRow map[int]string, rows int) []string {
	lower := make([]string, rows+1)
	for i, city := range cityByRow {
		lower[i] = strings.ToLower(city)
	}
	return lower
}

// queryFor is the per-cell step of plan: the §5.1 verdict on a cell's trimmed
// content and, when the cell survives, its query — the content, followed by
// the row's city unless the content already names it.
func (c Config) queryFor(content, city, lowerCity string) (string, SkipReason) {
	if reason := check(content); reason != SkipNone {
		return "", reason
	}
	if lowerCity != "" && !strings.Contains(strings.ToLower(content), lowerCity) {
		return content + " " + city, SkipNone
	}
	return content, SkipNone
}

// plan walks the table once, applying the §5.1 pre-processing and the §5.2.2
// spatial augmentation, and collects the unique queries to execute. Querying
// the engine is the dominant cost (§6.4), so identical cell contents share
// one query; the query string includes the spatial augmentation so different
// rows stay distinguishable. A traced plan explains every cell, skipped ones
// with their reason. The error is ctx.Err() when the context cancels while the
// Location columns geocode and vote.
func (r *Run) plan(ctx context.Context, exclude map[CellKey]bool, traced bool) (tablePlan, error) {
	c, t := r.cfg, r.t
	p := tablePlan{skipped: map[SkipReason]int{}}

	// Spatial context per row, resolved once per table (§5.2.2).
	cityByRow, err := r.rowCities(ctx)
	if err != nil {
		return p, err
	}
	lowerCity := lowerCities(cityByRow, t.NumRows())

	seen := map[string]int{}
	for j := 1; j <= t.NumCols(); j++ {
		if SkipColumn(t.Columns[j-1].Type) {
			p.skipped[SkipColumnType] += t.NumRows()
			for i := 1; traced && i <= t.NumRows(); i++ {
				p.trace = append(p.trace, CellExplanation{Row: i, Col: j, Content: strings.TrimSpace(t.Cell(i, j)), Skipped: SkipColumnType})
			}
			continue
		}
		for i := 1; i <= t.NumRows(); i++ {
			if exclude[CellKey{Row: i, Col: j}] {
				continue
			}
			content := strings.TrimSpace(t.Cell(i, j))
			query, reason := c.queryFor(content, cityByRow[i], lowerCity[i])
			if traced {
				p.trace = append(p.trace, CellExplanation{Row: i, Col: j, Content: content, Skipped: reason, Query: query})
			}
			if reason != SkipNone {
				p.skipped[reason]++
				continue
			}
			qi, ok := seen[query]
			if !ok {
				qi = len(p.unique)
				seen[query] = qi
				p.unique = append(p.unique, query)
			}
			p.cells = append(p.cells, cellQuery{cell: CellKey{Row: i, Col: j}, query: qi})
		}
	}
	return p, nil
}

// maxSearchBatch caps one backend batch (and one batched cache lookup): big
// enough to amortize per-call setup, small enough that every worker stays
// busy and a cache singleflight publishes its verdicts promptly.
const maxSearchBatch = 32

// chunkSize returns the batch chunk length for n queries at the given
// parallelism: the queries divide evenly over the workers, capped at
// maxSearchBatch.
func chunkSize(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	size := (n + workers - 1) / workers
	if size > maxSearchBatch {
		size = maxSearchBatch
	}
	if size < 1 {
		size = 1
	}
	return size
}

// execute resolves every unique query to a verdict, positionally, and sets
// the Queries, batch and cache counters on res. The queries are cut into
// chunks sized for the worker count, run over the Parallelism-bounded pool
// under pool.RunErr's rule: a failed chunk (a backend error) cancels the rest.
// A chunk costs one backend batch call; with a shared cache it goes through
// the cache's batched singleflight first, whose compute callback — invoked
// with only the chunk's genuine misses — is that same call, so one backend
// query is issued per unique key across all concurrent tables (which table's
// Result records the miss can vary; totals are fixed by the workload).
// Verdicts are identical at any chunking. A traced run, which carries no cache,
// passes rec to receive each query's retrieved count and flat votes.
//
// The chunks add their results and their time in each step to work; on the
// request's obs record execute counts the queries sent and the results
// decided.
func (c Config) execute(ctx context.Context, queries []string, res *Result, rec []CellExplanation, work *chunkWork) ([]qcache.Verdict, error) {
	gamma := c.typeSet()
	var batches, hits atomic.Int64
	chunk := func(ctx context.Context, queries []string, rec []CellExplanation) ([]qcache.Verdict, error) {
		batches.Add(1)
		return c.resolveChunk(ctx, queries, gamma, rec, work)
	}
	if c.Cache != nil {
		resolve, prefix := chunk, c.cacheKeyPrefix()
		chunk = func(ctx context.Context, queries []string, _ []CellExplanation) ([]qcache.Verdict, error) {
			keys := make([]string, len(queries))
			for i, q := range queries {
				keys[i] = prefix + q
			}
			vs, hit, err := c.Cache.GetOrComputeBatch(ctx, keys, func(missKeys []string) ([]qcache.Verdict, error) {
				miss := make([]string, len(missKeys))
				for i, k := range missKeys {
					miss[i] = k[len(prefix):]
				}
				return resolve(ctx, miss, nil)
			})
			for _, h := range hit {
				if h {
					hits.Add(1)
				}
			}
			return vs, err
		}
	}

	n := len(queries)
	out := make([]qcache.Verdict, n)
	size := chunkSize(n, c.Parallelism)
	_, err := pool.RunErr(ctx, c.Parallelism, (n+size-1)/size, func(ctx context.Context, ci int) error {
		lo, hi := ci*size, min(ci*size+size, n)
		var chunkRec []CellExplanation
		if rec != nil {
			chunkRec = rec[lo:hi]
		}
		vs, err := chunk(ctx, queries[lo:hi], chunkRec)
		copy(out[lo:], vs)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Batches = int(batches.Load())
	res.CacheHits = int(hits.Load())
	res.Queries = n - res.CacheHits
	if c.Cache != nil {
		res.CacheMisses = res.Queries
	}
	clock := obs.From(ctx)
	clock.Add(obs.Queries, int64(res.Queries))
	clock.Add(obs.Results, work.results.Load())
	return out, nil
}

// chunkWork is what execute's chunks measure, each adding once: the results
// decided, and the nanoseconds spent waiting on the backend and deciding.
type chunkWork struct {
	results, search, decide atomic.Int64
}

// resolveChunk resolves one chunk of queries with a single backend batch
// call and applies the Eq. 1 decision per query (positional). The
// per-decision scratch state (see scratch) is checked out of a pool once for
// the whole chunk. A non-nil rec, one per query, receives the trace records.
// The chunk's results and its time in each step are added to work.
func (c Config) resolveChunk(ctx context.Context, queries []string, gamma map[string]struct{}, rec []CellExplanation, work *chunkWork) ([]qcache.Verdict, error) {
	start := time.Now()
	lists, err := c.Searcher.SearchBatchContext(ctx, queries, c.k())
	if err != nil {
		return nil, err
	}
	searched := time.Since(start)
	sc := getScratch()
	defer putScratch(sc)
	out := make([]qcache.Verdict, len(lists))
	results := 0
	for i, list := range lists {
		results += len(list)
		typ, score, ok := c.decideWith(sc, list, gamma)
		out[i] = qcache.Verdict{Type: typ, Score: score, OK: ok}
		if rec != nil {
			// The flat counts, whichever rule decided.
			c.countVotes(sc, list, gamma)
			rec[i] = CellExplanation{Retrieved: len(list), Votes: maps.Clone(sc.counts)}
		}
	}
	work.results.Add(int64(results))
	work.search.Add(int64(searched))
	work.decide.Add(int64(time.Since(start) - searched))
	return out, nil
}

// searchOne is a batch of one, for the TIS baseline that decides cell by
// cell.
func (c Config) searchOne(ctx context.Context, query string) ([]search.Result, error) {
	lists, err := c.Searcher.SearchBatchContext(ctx, []string{query}, c.k())
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// cacheKeyPrefix fingerprints every configuration setting a verdict depends
// on, except the classifier — that is what CacheSalt is for (see the Cache
// field doc). Identical prefixes mean verdicts are exchangeable.
func (c Config) cacheKeyPrefix() string {
	types := append([]string(nil), c.Types...)
	sort.Strings(types)
	return fmt.Sprintf("%s\x00k=%d\x00ct=%g\x00%s\x00", c.CacheSalt, c.k(), c.ClusterThreshold, strings.Join(types, ","))
}

// merge applies the positional verdicts back to the planned cells —
// column-major, the order the original sequential pipeline produced — fills a
// traced plan's explanations from their queries' verdicts and records, and
// then runs the §5.3 post-processing when enabled.
func (c Config) merge(t *table.Table, p tablePlan, verdicts []qcache.Verdict, rec []CellExplanation, res *Result) {
	for _, cq := range p.cells {
		if v := verdicts[cq.query]; v.OK {
			res.Annotations = append(res.Annotations, Annotation{Row: cq.cell.Row, Col: cq.cell.Col, Type: v.Type, Score: v.Score})
		}
	}
	// Both column-major, the trace's queried cells pair off with p.cells.
	next := 0
	for i := range p.trace {
		if e := &p.trace[i]; e.Skipped == SkipNone {
			q := p.cells[next].query
			next++
			e.Retrieved, e.Votes = rec[q].Retrieved, maps.Clone(rec[q].Votes)
			e.Verdict, e.Score = verdicts[q].Type, verdicts[q].Score
		}
	}
	res.Trace = p.trace
	if c.Postprocess {
		c.postprocess(t, res)
	}
}

// scratch is the pooled per-worker decision state: the Eq. 1 vote counts and,
// for snippets that have to be classified from their text, the
// feature-extraction buffers — reused across the queries of a chunk so the
// steady-state decide path allocates only what it returns.
type scratch struct {
	counts map[string]int
	ex     textproc.Extractor
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{counts: make(map[string]int, 16)}
}}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// snippetPredictor labels one search result with the configured classifier —
// the single step 3 of the algorithm. A hit of the built-in
// engine carries its snippet's token ids and a vocabulary-bound classifier
// scores those directly; a result without ids (a SearchFunc, a mock, a
// title-only hit) or a classifier without a bound form (Naive Bayes) goes
// through the snippet text, the adapter the open Searcher and Classifier
// interfaces need.
type snippetPredictor struct {
	clf   classify.Classifier
	terms classify.TermClassifier // clf when it is bound to a vocabulary, else nil
	ex    *textproc.Extractor
}

func (c Config) predictor(sc *scratch) snippetPredictor {
	terms, _ := c.Classifier.(classify.TermClassifier)
	return snippetPredictor{clf: c.Classifier, terms: terms, ex: &sc.ex}
}

func (p snippetPredictor) predict(r search.Result) string {
	if p.terms != nil && r.Terms != nil {
		return p.terms.PredictTerms(r.Terms)
	}
	return p.clf.Predict(p.ex.Extract(r.Snippet))
}

// decideWith turns a result list into an annotation verdict against
// caller-owned scratch state: Eq. 1's majority rule by default, or the
// cluster-separated variant when ClusterThreshold is set (§5.2's future-work
// extension, implemented in cluster.go). The cluster variant compares
// snippets as feature vectors and needs every one alive at once, so it
// extracts them from the text; the flat majority rule predicts result by
// result through snippetPredictor, which for the built-in engine and a bound
// classifier touches neither the snippet text nor the heap.
func (c Config) decideWith(sc *scratch, results []search.Result, gamma map[string]struct{}) (string, float64, bool) {
	if c.ClusterThreshold > 0 {
		return c.clusterDecide(results, gamma)
	}
	c.countVotes(sc, results, gamma)
	return majorityType(sc.counts, len(results))
}

// countVotes tallies step 3 into sc.counts, one vote per result predicted in
// Γ: what the flat rule decides on and what a trace displays.
func (c Config) countVotes(sc *scratch, results []search.Result, gamma map[string]struct{}) {
	clear(sc.counts)
	p := c.predictor(sc)
	for _, r := range results {
		pred := p.predict(r)
		if _, inGamma := gamma[pred]; inGamma {
			sc.counts[pred]++
		}
	}
}

// majorityType applies the Eq. 1 decision rule: the unique type with the
// highest snippet count wins iff its count strictly exceeds k/2; the score is
// s_t / k. k is the number of snippets actually retrieved.
func majorityType(counts map[string]int, k int) (string, float64, bool) {
	if k == 0 {
		return "", 0, false
	}
	best, bestCount, ties := "", 0, 0
	for typ, c := range counts {
		switch {
		case c > bestCount:
			best, bestCount, ties = typ, c, 1
		case c == bestCount:
			ties++
		}
	}
	if bestCount*2 <= k || ties > 1 {
		return "", 0, false
	}
	return best, float64(bestCount) / float64(k), true
}

// rowCities geocodes every Location-column cell, resolves ambiguous
// interpretations with the §5.2.2 voting graph across the whole table, and
// returns the chosen city name per row; nil when spatial augmentation is off.
// Rows without resolvable spatial data are absent from the map. When a row's
// Location columns resolve to different cities, the lowest column index that
// resolves to a city wins (the resolution is read in column-major order). The
// error is ctx.Err() when the context cancels mid-resolution.
func (r *Run) rowCities(ctx context.Context) (map[int]string, error) {
	if !r.cfg.Disambiguate {
		return nil, nil
	}
	res, err := r.resolution(ctx)
	if err != nil {
		return nil, err
	}
	gaz := r.cfg.Gazetteer
	out := make(map[int]string)
	for i, it := range res.interps {
		if _, done := out[it.Cell.Row]; done {
			continue
		}
		if city := gaz.CityOf(res.choices[i].Loc); city != gazetteer.NoLocation {
			out[it.Cell.Row] = gaz.Name(city)
		}
	}
	return out, nil
}
