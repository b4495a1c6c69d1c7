package repro

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/disambig"
	"repro/internal/eval"
	"repro/internal/gazetteer"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/snapshot"
	"repro/internal/table"
)

// APIVersion identifies the request/response schema of this package (and of
// the HTTP wire format cmd/serve exposes under /v1/).
const APIVersion = "v1"

// Scale values accepted by WithScale.
const (
	// ScaleSmall is the fast, demo-quality corpus (the default).
	ScaleSmall = "small"
	// ScaleFull is the paper-scale corpus cmd/experiments uses.
	ScaleFull = "full"
)

// Classifier names accepted by WithClassifier.
const (
	// ClassifierSVM selects the linear SVM snippet classifier (default).
	ClassifierSVM = "svm"
	// ClassifierBayes selects the Naive Bayes snippet classifier.
	ClassifierBayes = "bayes"
)

// settings accumulates the functional options of New. The *Set flags record
// which identity options were given explicitly, so a snapshot boot can
// distinguish "caller pinned this value" (refuse on manifest mismatch) from
// "caller took the default" (inherit the manifest's value).
type settings struct {
	seed            int64
	scale           string
	classifier      string
	parallelism     int
	shareCache      bool
	cacheMaxEntries int
	searchShards    int
	snapshotPath    string

	seedSet       bool
	scaleSet      bool
	classifierSet bool
	shardsSet     bool
}

// Option configures New. Options validate eagerly: an invalid value makes
// New return an *OptionError instead of silently falling back.
type Option func(*settings) error

// WithSeed sets the seed that drives every random choice; equal seeds give
// equal services. The default is 0.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.seed = seed
		s.seedSet = true
		return nil
	}
}

// WithScale selects the corpus size: ScaleSmall (default) or ScaleFull.
func WithScale(scale string) Option {
	return func(s *settings) error {
		switch scale {
		case ScaleSmall, ScaleFull:
			s.scale = scale
			s.scaleSet = true
			return nil
		}
		return &OptionError{Option: "WithScale", Value: scale, Allowed: []string{ScaleSmall, ScaleFull}}
	}
}

// WithClassifier selects the snippet classifier: ClassifierSVM (default) or
// ClassifierBayes. Both are trained during New; the option picks which one
// annotates.
func WithClassifier(name string) Option {
	return func(s *settings) error {
		switch name {
		case ClassifierSVM, ClassifierBayes:
			s.classifier = name
			s.classifierSet = true
			return nil
		}
		return &OptionError{Option: "WithClassifier", Value: name, Allowed: []string{ClassifierSVM, ClassifierBayes}}
	}
}

// WithParallelism bounds the annotation worker pools: cell queries within a
// table, and tables within AnnotateBatch/GeocodeBatch. Values <= 1 run
// sequentially (the default); negative values are rejected. Results are
// identical at any setting — only the wall-clock changes.
func WithParallelism(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return &OptionError{Option: "WithParallelism", Value: fmt.Sprint(n)}
		}
		s.parallelism = n
		return nil
	}
}

// WithSearchShards sets the shard count of the service's search index: each
// query's BM25 scoring fans out across the shards in parallel, with results
// byte-identical to a monolithic index at any count. 0 (the default)
// selects one shard per available CPU, capped at 8; 1 disables sharding;
// negative values and values above search.FewShards (64, the most a
// persisted index of few documents may claim) are rejected.
func WithSearchShards(n int) Option {
	return func(s *settings) error {
		if n < 0 || n > search.FewShards {
			return &OptionError{Option: "WithSearchShards", Value: fmt.Sprint(n)}
		}
		s.searchShards = n
		s.shardsSet = n != 0
		return nil
	}
}

// WithSnapshot boots the service from a prebuilt TSNP bundle (written by
// Service.WriteSnapshot or cmd/snapshot) instead of rebuilding the world:
// the search index, gazetteer and both trained classifiers stream in
// sequentially, so startup is IO-bound rather than compute-bound. The
// service inherits the bundle manifest's seed, scale and shard count; if any
// of those are ALSO set explicitly (WithSeed, WithScale, WithSearchShards)
// and disagree with the manifest, New refuses with a *SnapshotMismatchError
// rather than serving results the flags did not ask for. WithClassifier
// still selects freely — both classifiers travel in every bundle. A
// snapshot-booted service is made of the bundle alone: Lab() is nil.
func WithSnapshot(path string) Option {
	return func(s *settings) error {
		if path == "" {
			return &OptionError{Option: "WithSnapshot", Value: path}
		}
		s.snapshotPath = path
		return nil
	}
}

// WithSharedCache shares query verdicts across every table the service
// annotates, so repeated cell values stop costing search round-trips — the
// cross-table cache motivated by the paper's §6.4 latency analysis. The
// cache is keyed by classifier, k, type set and decision rule, so requests
// with different knobs never exchange verdicts.
func WithSharedCache() Option {
	return func(s *settings) error {
		s.shareCache = true
		return nil
	}
}

// WithCacheLimits bounds the shared cache WithSharedCache enables:
// maxEntries caps the number of cached verdicts (0 = unbounded; oldest
// insertions are evicted first); a negative value is rejected. The limit has
// no effect without WithSharedCache; the eviction count surfaces on the
// serving layer's /statz cache section. A cached verdict never expires, so
// ttl must be 0: any other value is rejected. The argument stays only because
// the benchmark harness (bench/) passes it, and goes together with that call.
func WithCacheLimits(maxEntries int, ttl time.Duration) Option {
	return func(s *settings) error {
		if maxEntries < 0 {
			return &OptionError{Option: "WithCacheLimits", Value: fmt.Sprint(maxEntries)}
		}
		if ttl != 0 {
			return &OptionError{Option: "WithCacheLimits", Value: ttl.String()}
		}
		s.cacheMaxEntries = maxEntries
		return nil
	}
}

// Service is the annotation pipeline as a request/response service: one
// expensive construction (corpus generation, indexing, classifier training —
// or a bundle load) via New, then any number of concurrent Annotate/
// AnnotateBatch/Geocode calls. A Service is immutable after New; per-request
// knobs travel in the AnnotateRequest and are applied to a copied pipeline
// configuration, never to shared state.
type Service struct {
	// bundle is the value the service is made of — index, gazetteer, both
	// classifiers and their manifest — read from a file or assembled from a
	// fresh lab; WriteSnapshot writes it back out.
	bundle snapshot.Bundle
	// engine searches bundle.Index.
	engine *search.Engine
	// lab is what a build leaves beside the bundle; nil on a snapshot boot.
	lab *eval.Lab
	// clf names the classifier that annotates, the manifest's or not.
	clf string
	// buildDur is the wall-clock cost of New: the world build or the load.
	buildDur time.Duration
	// snap says which file the bundle was read from; nil after a build.
	snap *SnapshotInfo
	// base is the immutable pipeline configuration every request derives
	// from; the expensive components (classifier, engine, gazetteer) are
	// shared by reference and never rebuilt per request.
	base annotate.Config
}

// SnapshotInfo describes the bundle a snapshot-booted service loaded.
type SnapshotInfo struct {
	// Path is the bundle file the service booted from.
	Path string
	// LoadDuration is how long this service took to load the bundle.
	LoadDuration time.Duration
	// Manifest is the bundle's own (Classifier is the kind the writing
	// service served with, not necessarily this one — see WithClassifier).
	Manifest snapshot.Manifest
}

// New builds the service. Construction is the expensive step (it generates
// the synthetic universe, indexes its web corpus and trains the snippet
// classifiers, or loads the bundle WithSnapshot names); reuse the Service for
// every request. If ctx is cancelled before that finishes, New returns
// ctx.Err() — the abandoned build or load completes in a background goroutine
// and is discarded.
func New(ctx context.Context, opts ...Option) (*Service, error) {
	st := settings{scale: ScaleSmall, classifier: ClassifierSVM}
	for _, opt := range opts {
		if err := opt(&st); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st.snapshotPath != "" {
		return newFromSnapshot(ctx, st)
	}

	cfg := eval.LabConfig{
		Seed:            st.seed,
		Parallelism:     st.parallelism,
		ShareCache:      st.shareCache,
		CacheMaxEntries: st.cacheMaxEntries,
		SearchShards:    st.searchShards,
	}
	if st.scale != ScaleFull {
		cfg.KBPerType = 60
		cfg.SnippetsPerEntity = 5
		cfg.MaxTrainEntities = 60
	}
	start := time.Now()
	lab, err := await(ctx, func() (*eval.Lab, error) { return eval.NewLab(cfg), nil })
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	six := lab.Engine.ShardedIndex()
	s := newService(st, &snapshot.Bundle{
		Manifest: snapshot.Manifest{
			Seed:         st.seed,
			Scale:        st.scale,
			Classifier:   st.classifier,
			SearchShards: six.NumShards(),
			Docs:         six.Len(),
			Locations:    lab.Geo.Len(),
			BuildMillis:  dur.Milliseconds(),
		},
		Index:     six,
		Gazetteer: lab.Geo,
		SVM:       lab.SVM,
		Bayes:     lab.Bayes,
	}, lab.Engine, lab.Cache, dur)
	s.lab = lab
	return s, nil
}

// await runs f on a background goroutine and returns its result, or ctx's
// error as soon as ctx is done — f then runs to completion unobserved.
func await[T any](ctx context.Context, f func() (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := f()
		ch <- result{v, err}
	}()
	select {
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	case r := <-ch:
		return r.v, r.err
	}
}

// newService makes the service from the value a bundle carries, the engine
// over its index and the cache: the one constructor behind both boots. The
// classifier is bound to the index's vocabulary here, once, so the decide loop
// scores the token ids search hits carry (Naive Bayes classifies from text).
func newService(st settings, b *snapshot.Bundle, engine *search.Engine, cache *qcache.Cache, dur time.Duration) *Service {
	s := &Service{bundle: *b, engine: engine, clf: st.classifier, buildDur: dur}
	s.base = annotate.Config{
		Searcher:     engine,
		Classifier:   classify.Bind(s.Classifier(s.clf), b.Index.Vocab()),
		Types:        eval.TypeStrings(),
		Postprocess:  true,
		Disambiguate: true,
		Gazetteer:    b.Gazetteer,
		Parallelism:  st.parallelism,
		Cache:        cache,
		CacheSalt:    s.clf,
	}
	return s
}

// newFromSnapshot assembles the service from a TSNP bundle: sequential
// section reads off one file, no corpus generation, no training.
func newFromSnapshot(ctx context.Context, st settings) (*Service, error) {
	start := time.Now()
	b, err := await(ctx, func() (*snapshot.Bundle, error) {
		b, err := snapshot.ReadFile(st.snapshotPath)
		if err != nil {
			return nil, fmt.Errorf("repro: loading snapshot %s: %w", st.snapshotPath, err)
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	m := b.Manifest

	// Identity options that were set explicitly must agree with the
	// manifest; unset ones inherit its values.
	if st.seedSet && st.seed != m.Seed {
		return nil, &SnapshotMismatchError{Option: "WithSeed", Want: fmt.Sprint(st.seed), Have: fmt.Sprint(m.Seed)}
	}
	if st.scaleSet && st.scale != m.Scale {
		return nil, &SnapshotMismatchError{Option: "WithScale", Want: st.scale, Have: m.Scale}
	}
	if st.shardsSet && st.searchShards != m.SearchShards {
		return nil, &SnapshotMismatchError{Option: "WithSearchShards", Want: fmt.Sprint(st.searchShards), Have: fmt.Sprint(m.SearchShards)}
	}
	if !st.classifierSet && (m.Classifier == ClassifierSVM || m.Classifier == ClassifierBayes) {
		st.classifier = m.Classifier
	}
	var cache *qcache.Cache
	if st.shareCache {
		cache = qcache.NewWithOptions(qcache.Options{MaxEntries: st.cacheMaxEntries})
	}
	s := newService(st, b, search.NewShardedEngine(b.Index), cache, dur)
	s.snap = &SnapshotInfo{Path: st.snapshotPath, LoadDuration: dur, Manifest: m}
	return s, nil
}

// WriteSnapshot serialises the service's serving artifacts — search index,
// gazetteer, both classifiers — as a TSNP v1 bundle that WithSnapshot (and
// cmd/serve -snapshot-file) can boot from. The manifest is the service's own,
// stamped with the classifier it serves with, the time and tool, which names
// the writer.
func (s *Service) WriteSnapshot(w io.Writer, tool string) (int64, error) {
	b := s.bundle
	b.Manifest.Classifier = s.clf
	b.Manifest.CreatedAtUnix = time.Now().Unix()
	b.Manifest.Tool = tool
	return b.WriteTo(w)
}

// Toggle is a three-state request switch for pipeline stages whose service
// default is on: the zero value keeps the default, ToggleOn and ToggleOff
// force the stage.
type Toggle uint8

const (
	// ToggleDefault keeps the service default (the paper's setting: on).
	ToggleDefault Toggle = iota
	// ToggleOn forces the stage on for this request.
	ToggleOn
	// ToggleOff forces the stage off for this request.
	ToggleOff
)

// apply resolves the toggle against the default.
func (t Toggle) apply(def bool) bool {
	switch t {
	case ToggleOn:
		return true
	case ToggleOff:
		return false
	}
	return def
}

// ToggleOf converts an optional boolean (nil = default) to a Toggle; the
// HTTP layer uses it to map absent JSON fields.
func ToggleOf(b *bool) Toggle {
	switch {
	case b == nil:
		return ToggleDefault
	case *b:
		return ToggleOn
	}
	return ToggleOff
}

// MaxK bounds AnnotateRequest.K: well above the paper's 10 and the k sweep's
// 15, and a bound on what one request can make the engine select and keep
// (each distinct k is also a shared-cache key of its own).
const MaxK = 100

// AnnotateRequest asks the service to annotate one table. The zero value of
// every knob selects the paper's canonical setting, so
// &AnnotateRequest{Table: tbl} reproduces the full §5 pipeline.
type AnnotateRequest struct {
	// Table is the GFT-style table to annotate. Required.
	Table *Table
	// Types restricts Γ to a subset of the service's types; nil keeps all
	// twelve. Unknown names are rejected with a *RequestError.
	Types []string
	// K is the number of snippets fetched per query; 0 selects 10, the
	// paper's setting. At most MaxK; more is a *RequestError.
	K int
	// Postprocess toggles the §5.3 spurious-annotation elimination
	// (default on).
	Postprocess Toggle
	// Disambiguate toggles the §5.2.2 spatial query augmentation
	// (default on).
	Disambiguate Toggle
	// Trace additionally returns the per-cell decision explanations
	// (cmd/annotate's -explain view). The request's one pass records them,
	// sending no extra query; but a verdict keeps no votes, so a traced
	// request neither reads nor fills the shared cache: it sends every one
	// of its unique queries, and its CacheStats are zero.
	Trace bool
	// Geocode additionally runs the §5.2.2 geocode+disambiguate stage as
	// an output product: every Location-column cell resolved against the
	// gazetteer appears in AnnotateResponse.GeoAnnotations. Off by
	// default; the stage costs gazetteer lookups and graph propagation but
	// no search-engine queries.
	Geocode bool
}

// Stats summarises one annotation run.
type Stats struct {
	// Rows and Cols are the table's dimensions.
	Rows, Cols int
	// Annotated is the number of cell annotations returned.
	Annotated int
	// Queries is the number of search-engine queries issued (after the
	// per-table deduplication and, when configured, the shared cache).
	Queries int
	// Batches is the number of backend batch calls the queries travelled
	// in (the pipeline submits a table's deduped queries in chunks);
	// Queries/Batches is the average batch size. 0 when every query was
	// answered by the shared cache.
	Batches int
	// Skipped counts pre-processing eliminations per reason; nil when
	// nothing was skipped.
	Skipped map[string]int
}

// CacheStats reports the shared cross-table cache's contribution to one
// request; both are zero when the service was built without WithSharedCache.
type CacheStats struct {
	// Hits is the number of unique cell queries answered by the cache.
	Hits int
	// Misses is the number that cost a search-engine round-trip.
	Misses int
}

// Timing is the request's wall-clock breakdown.
type Timing struct {
	// Total is the end-to-end service time of the request.
	Total time.Duration
	// Stages splits Total by stage (indexed by internal/obs's Stage): every
	// instant of the request is charged to the innermost stage open at it, a
	// stage nested in another subtracted from it, so the stages add up to
	// Total. Render holds the response and what no other stage does. Decode
	// and Encode are the HTTP server's and read 0 here.
	Stages obs.Times
}

// AnnotateResponse is the result of one AnnotateRequest.
type AnnotateResponse struct {
	// Annotations are the annotated cells with their Eq. 1 scores, in
	// deterministic column-major cell order.
	Annotations []Annotation
	// ColumnTypes maps 1-based column index -> the column's semantic
	// type, derived from the Eq. 2 scores; nil unless post-processing
	// ran.
	ColumnTypes map[int]string
	// Trace holds one human-readable explanation per cell when the
	// request set Trace.
	Trace []string
	// GeoAnnotations holds the resolved Location-column cells when the
	// request set Geocode; nil otherwise (and when nothing geocoded).
	GeoAnnotations []GeoAnnotation
	// Stats, CacheStats and Timing describe the run.
	Stats      Stats
	CacheStats CacheStats
	Timing     Timing
	// Work is the request's work counters (indexed by internal/obs's
	// Counter) when the request set Trace; nil otherwise.
	Work *obs.Counts
}

// requestConfig validates the request and derives its immutable pipeline
// configuration from the service's base config. No expensive component is
// rebuilt — the derived config shares the classifier, engine and gazetteer
// by reference.
func (s *Service) requestConfig(req *AnnotateRequest) (annotate.Config, error) {
	var zero annotate.Config
	if req == nil || req.Table == nil {
		return zero, &RequestError{Field: "table", Reason: "missing"}
	}
	if req.Table.NumCols() == 0 {
		return zero, &RequestError{Field: "table", Reason: "has no columns"}
	}
	if req.K < 0 || req.K > MaxK {
		return zero, &RequestError{Field: "k", Reason: fmt.Sprintf("must be in 0..%d, got %d", MaxK, req.K)}
	}
	cfg := s.base
	if req.Types != nil {
		if len(req.Types) == 0 {
			return zero, &RequestError{Field: "types", Reason: "empty (omit the field to target all types)"}
		}
		known := make(map[string]bool, len(s.base.Types))
		for _, t := range s.base.Types {
			known[t] = true
		}
		for _, t := range req.Types {
			if !known[t] {
				return zero, &RequestError{Field: "types", Reason: fmt.Sprintf("unknown type %q", t)}
			}
		}
		cfg.Types = append([]string(nil), req.Types...)
	}
	if req.K > 0 {
		cfg.K = req.K
	}
	cfg.Postprocess = req.Postprocess.apply(cfg.Postprocess)
	cfg.Disambiguate = req.Disambiguate.apply(cfg.Disambiguate)
	return cfg, nil
}

// Annotate runs one request through the §5 pipeline. It returns a
// *RequestError for invalid requests and ctx.Err() when the context is
// cancelled mid-flight — never a silently-truncated response. Safe for
// concurrent use.
func (s *Service) Annotate(ctx context.Context, req *AnnotateRequest) (*AnnotateResponse, error) {
	cfg, err := s.requestConfig(req)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, cfg, req)
}

// clock starts one table's obs record on ctx, opened on Render, and returns
// the context carrying it and the func that ends the request: it closes the
// record, adds it to the caller's record (the server's, when ctx carries one)
// and returns the request's Timing. Total is the record's own span, from the
// clock read that opens Render to the one that closes it, so the stages
// partition it exactly.
func clock(ctx context.Context) (context.Context, *obs.Record, func() Timing) {
	parent, rec := obs.From(ctx), obs.New()
	ctx = obs.With(ctx, rec)
	render := rec.Start(obs.Render)
	return ctx, rec, func() Timing {
		render.Stop()
		stages := rec.Wall()
		parent.Merge(rec)
		return Timing{Total: stages.Sum(), Stages: stages}
	}
}

// run executes an already-validated request with its derived config.
func (s *Service) run(ctx context.Context, cfg annotate.Config, req *AnnotateRequest) (*AnnotateResponse, error) {
	ctx, rec, done := clock(ctx)
	// One run, so one geocode+vote pass serves the Disambiguate stage and the
	// GeoAnnotations output.
	run := cfg.For(req.Table)
	pass := run.Annotate
	if req.Trace {
		pass = run.AnnotateTraced
	}
	res, err := pass(ctx)
	if err != nil {
		done()
		return nil, err
	}
	resp := &AnnotateResponse{
		Annotations: res.Annotations,
		ColumnTypes: res.ColumnTypes(),
		Stats: Stats{
			Rows:      req.Table.NumRows(),
			Cols:      req.Table.NumCols(),
			Annotated: len(res.Annotations),
			Queries:   res.Queries,
			Batches:   res.Batches,
		},
		CacheStats: CacheStats{Hits: res.CacheHits, Misses: res.CacheMisses},
	}
	if len(res.Skipped) > 0 {
		resp.Stats.Skipped = make(map[string]int, len(res.Skipped))
		for reason, n := range res.Skipped {
			resp.Stats.Skipped[string(reason)] = n
		}
	}
	for _, e := range res.Trace {
		resp.Trace = append(resp.Trace, e.String())
	}
	if req.Geocode {
		gas, _, err := run.GeoAnnotate(ctx)
		if err != nil {
			done()
			return nil, err
		}
		resp.GeoAnnotations = gas
	}
	if req.Trace {
		work := rec.Work()
		resp.Work = &work
	}
	resp.Timing = done()
	return resp, nil
}

// GeocodeRequest asks the service to geocode and disambiguate one table's
// Location columns without running the annotation pipeline.
type GeocodeRequest struct {
	// Table is the GFT-style table to geocode. Required.
	Table *Table
}

// GeoStats summarises one geocode run.
type GeoStats struct {
	// LocationCells is the number of non-empty cells in Location-typed
	// columns.
	LocationCells int
	// Resolved is the number of cells the gazetteer geocoded (each yields
	// one GeoAnnotation).
	Resolved int
	// Ambiguous is the number of resolved cells that had more than one
	// candidate interpretation before disambiguation.
	Ambiguous int
	// Components and LargestComponent describe the voting graph's
	// connected-component decomposition: how many independent units the
	// table split into, and the node count of the biggest one.
	Components       int
	LargestComponent int
	// PeakScratchBytes is the high-water mark of pooled per-component
	// scratch held concurrently while resolving — the stage's bounded
	// working memory, O(largest component × workers).
	PeakScratchBytes int64
}

// GeocodeResponse is the result of one GeocodeRequest.
type GeocodeResponse struct {
	// Annotations are the resolved Location-column cells in deterministic
	// column-major cell order.
	Annotations []GeoAnnotation
	// Stats and Timing describe the run.
	Stats  GeoStats
	Timing Timing
}

// validateGeocode is the shared request validation of Geocode and
// GeocodeBatch, so single and batch requests can never drift apart on what
// they accept.
func validateGeocode(req *GeocodeRequest) error {
	if req == nil || req.Table == nil {
		return &RequestError{Field: "table", Reason: "missing"}
	}
	if req.Table.NumCols() == 0 {
		return &RequestError{Field: "table", Reason: "has no columns"}
	}
	return nil
}

// Geocode resolves one table's Location columns against the gazetteer: the
// §5.2.2 geocode+disambiguate stage as a standalone request, costing no
// search-engine queries. It returns a *RequestError for invalid requests and
// ctx.Err() on cancellation. Safe for concurrent use.
func (s *Service) Geocode(ctx context.Context, req *GeocodeRequest) (*GeocodeResponse, error) {
	if err := validateGeocode(req); err != nil {
		return nil, err
	}
	ctx, _, done := clock(ctx)
	gas, stage, err := s.base.For(req.Table).GeoAnnotate(ctx)
	if err != nil {
		done()
		return nil, err
	}
	resp := &GeocodeResponse{Annotations: gas, Stats: geoStats(req.Table, gas, stage)}
	resp.Timing = done()
	return resp, nil
}

// geoStats derives the run summary from the table, its annotations and the
// stage's decomposition statistics.
func geoStats(t *Table, gas []GeoAnnotation, stage disambig.Stats) GeoStats {
	st := GeoStats{
		Resolved:         len(gas),
		Components:       stage.Components,
		LargestComponent: stage.LargestComponent,
		PeakScratchBytes: stage.PeakScratchBytes,
	}
	for _, j := range t.ColumnIndexesOfType(table.Location) {
		for i := 1; i <= t.NumRows(); i++ {
			if strings.TrimSpace(t.Cell(i, j)) != "" {
				st.LocationCells++
			}
		}
	}
	for _, ga := range gas {
		if ga.Candidates > 1 {
			st.Ambiguous++
		}
	}
	return st
}

// GeocodeBatch geocodes the requests over the service's worker pool and
// returns the responses in request order — the batch mirror of Geocode with
// annotate's batch semantics. Every request is validated before any work
// starts; the first invalid request fails the whole batch with its index, and
// the lowest-indexed runtime error (or the context error) fails it
// mid-flight. Safe for concurrent use.
func (s *Service) GeocodeBatch(ctx context.Context, reqs []*GeocodeRequest) ([]*GeocodeResponse, error) {
	for i, req := range reqs {
		if err := validateGeocode(req); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return batch(ctx, s, len(reqs), func(ctx context.Context, i int) (*GeocodeResponse, error) {
		return s.Geocode(ctx, reqs[i])
	})
}

// Explain is Annotate with Trace set, returning only the trace: one
// human-readable decision explanation per cell (the view behind
// cmd/annotate's -explain). The request's knobs apply; its Trace and Geocode
// are ignored.
func (s *Service) Explain(ctx context.Context, req *AnnotateRequest) ([]string, error) {
	cfg, err := s.requestConfig(req)
	if err != nil {
		return nil, err
	}
	resp, err := s.run(ctx, cfg, &AnnotateRequest{Table: req.Table, Trace: true})
	if err != nil {
		return nil, err
	}
	return resp.Trace, nil
}

// AnnotateBatch annotates the requests over the service's worker pool and
// returns the responses in request order. Every request is validated before
// any work starts; the first invalid request fails the whole batch with its
// index, and the lowest-indexed runtime error (or the context error) fails it
// mid-flight.
func (s *Service) AnnotateBatch(ctx context.Context, reqs []*AnnotateRequest) ([]*AnnotateResponse, error) {
	cfgs := make([]annotate.Config, len(reqs))
	for i, req := range reqs {
		cfg, err := s.requestConfig(req)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		cfgs[i] = cfg
	}
	return batch(ctx, s, len(reqs), func(ctx context.Context, i int) (*AnnotateResponse, error) {
		return s.run(ctx, cfgs[i], reqs[i])
	})
}

// batch runs one(ctx, i) for every i in [0, n) over s's worker pool under the
// pool's failure rule: the responses in request order, or the failure with the
// request it belongs to (the caller's own cancellation bare).
func batch[R any](ctx context.Context, s *Service, n int, one func(ctx context.Context, i int) (*R, error)) ([]*R, error) {
	out := make([]*R, n)
	i, err := pool.RunErr(ctx, s.base.Parallelism, n, func(ctx context.Context, i int) (err error) {
		out[i], err = one(ctx, i)
		return err
	})
	if err == nil {
		return out, nil
	}
	if i >= 0 {
		err = fmt.Errorf("request %d: %w", i, err)
	}
	return nil, err
}

// Classifier exposes the trained snippet classifiers: ClassifierSVM or
// ClassifierBayes (any other name returns the SVM).
func (s *Service) Classifier(name string) classify.Classifier {
	if name == ClassifierBayes {
		return s.bundle.Bayes
	}
	return s.bundle.SVM
}

// Engine exposes the simulated web search engine.
func (s *Service) Engine() *search.Engine { return s.engine }

// Cache exposes the shared cross-table verdict cache; nil when the service was
// built without WithSharedCache. Every New makes its own.
func (s *Service) Cache() *qcache.Cache { return s.base.Cache }

// Seed is the seed the service's world was built from (for a snapshot boot,
// the seed recorded in the bundle manifest).
func (s *Service) Seed() int64 { return s.bundle.Manifest.Seed }

// Scale is the corpus scale: ScaleSmall or ScaleFull.
func (s *Service) Scale() string { return s.bundle.Manifest.Scale }

// ClassifierName is the snippet classifier the service annotates with:
// ClassifierSVM or ClassifierBayes.
func (s *Service) ClassifierName() string { return s.clf }

// BuildDuration is the wall-clock cost of New: the full world build, or the
// snapshot load for a snapshot-booted service.
func (s *Service) BuildDuration() time.Duration { return s.buildDur }

// Snapshot describes the bundle the service booted from; nil when the world
// was built from scratch.
func (s *Service) Snapshot() *SnapshotInfo { return s.snap }

// Geo exposes the gazetteer the annotation pipeline and the geocode endpoint
// serve from, built with the universe or loaded from the snapshot.
func (s *Service) Geo() *gazetteer.Frozen { return s.bundle.Gazetteer }

// Lab is the harness's door onto what a build leaves beside the serving
// artifacts — the synthetic universe, the knowledge base, the evaluation
// datasets. Nil on a snapshot boot, which builds none of them.
func (s *Service) Lab() *eval.Lab { return s.lab }
