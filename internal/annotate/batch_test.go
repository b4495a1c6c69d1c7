package annotate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/table"
)

// scriptedBatchBackend is scriptedSearcher as a native batch backend,
// counting batch calls and batched queries so tests can assert how the
// execute stage chunked its queries.
type scriptedBatchBackend struct {
	scriptedSearcher
	batchCalls   atomic.Int64
	batchQueries atomic.Int64
}

func (s *scriptedBatchBackend) SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.batchCalls.Add(1)
	s.batchQueries.Add(int64(len(queries)))
	out := make([][]search.Result, len(queries))
	for i, q := range queries {
		r := s.results[q]
		if len(r) > k {
			r = r[:k]
		}
		out[i] = r
	}
	return out, nil
}

// blockingBackend's round-trips only finish when the context does — the
// shape of an in-flight remote call a cancellation must be able to abandon.
type blockingBackend struct{}

func (blockingBackend) SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// wideTable builds a one-column table with n distinct cell values.
func wideTable(t *testing.T, n int) *table.Table {
	t.Helper()
	tbl := table.New("wide", table.Column{Header: "Name", Type: table.Text})
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(fmt.Sprintf("Louvre Annex %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// batchScript returns a batch backend answering every query of an n-row
// wideTable with museum snippets.
func batchScript(n int) *scriptedBatchBackend {
	s := &scriptedBatchBackend{}
	s.results = map[string][]search.Result{}
	for i := 0; i < n; i++ {
		s.results[fmt.Sprintf("Louvre Annex %d", i)] = snippets(10)
	}
	return s
}

// The one execute body's input space: no cache, a fresh one, a pre-warmed one,
// each sequential (Parallelism 0 and 1 run the pool inline) and pooled.
var (
	matrixCaches      = []string{"nil", "fresh", "warm"}
	matrixParallelism = []int{0, 1, 4}
)

// matrixCache returns the cache of one matrix cell: nil, empty, or holding
// every verdict base's table needs (warmed through base with that cache).
func matrixCache(t *testing.T, kind string, base Config, tbl *table.Table) *qcache.Cache {
	t.Helper()
	if kind == "nil" {
		return nil
	}
	c := qcache.New()
	if kind == "warm" {
		base.Cache = c
		if _, err := base.Annotate(context.Background(), tbl); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestExecuteBatches: the execute stage submits chunks — every query carried
// by a batch, the chunk count in Result.Batches — with the documented
// counters in every cell of the cache × parallelism matrix, and a per-query
// function behind the SearchFunc adapter yields the identical annotation set.
func TestExecuteBatches(t *testing.T) {
	const rows = 70
	tbl := wideTable(t, rows)
	var want string
	for _, kind := range matrixCaches {
		for _, p := range matrixParallelism {
			label := fmt.Sprintf("cache=%s parallelism=%d", kind, p)
			cfg := Config{
				Searcher:    batchScript(rows),
				Classifier:  constClassifier("museum"),
				Types:       []string{"museum", "restaurant"},
				K:           10,
				Parallelism: p,
			}
			cfg.Cache = matrixCache(t, kind, cfg, tbl)
			s := batchScript(rows) // a backend that has seen only the measured run
			cfg.Searcher = s
			res, err := cfg.Annotate(context.Background(), tbl)
			if err != nil {
				t.Fatal(err)
			}
			// Only a miss reaches the backend: all of them without a cache or
			// with an empty one — in ceil(70/32) chunks sequentially, and in
			// four chunks of ceil(70/4) over four workers — none with a warm one.
			wantQueries, wantChunks := rows, (rows+maxSearchBatch-1)/maxSearchBatch
			if p == 4 {
				wantChunks = 4
			}
			if kind == "warm" {
				wantQueries, wantChunks = 0, 0
			}
			if got := s.batchQueries.Load(); got != int64(wantQueries) {
				t.Errorf("%s: batched queries = %d, want %d", label, got, wantQueries)
			}
			if got := s.batchCalls.Load(); got != int64(wantChunks) {
				t.Errorf("%s: batch calls = %d, want %d", label, got, wantChunks)
			}
			if res.Batches != wantChunks {
				t.Errorf("%s: Result.Batches = %d, want %d", label, res.Batches, wantChunks)
			}
			if len(res.Annotations) != rows || res.Queries != wantQueries {
				t.Errorf("%s: annotations=%d queries=%d, want %d and %d", label, len(res.Annotations), res.Queries, rows, wantQueries)
			}
			wantHits, wantMisses := 0, 0
			switch kind {
			case "fresh":
				wantMisses = rows
			case "warm":
				wantHits = rows
			}
			if res.CacheHits != wantHits || res.CacheMisses != wantMisses {
				t.Errorf("%s: cache hits=%d misses=%d, want %d and %d", label, res.CacheHits, res.CacheMisses, wantHits, wantMisses)
			}
			got := fmt.Sprintf("%+v", res.Annotations)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s: annotations differ from the first cell's", label)
			}
		}
	}

	// The per-query backend must produce the identical annotation set.
	s := batchScript(rows)
	plain := Config{
		Searcher:   &s.scriptedSearcher,
		Classifier: constClassifier("museum"),
		Types:      []string{"museum", "restaurant"},
		K:          10,
	}
	res2, err := plain.Annotate(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if want != fmt.Sprintf("%+v", res2.Annotations) {
		t.Error("batch and per-query backends produced different annotations")
	}
}

// TestBatchedExecuteParallelRace runs the execute stage from six concurrent
// whole-table runs in every cell of the cache × parallelism matrix and asserts
// outputs match the sequential run. Under -race this is the data-race check
// for the chunked worker pool, the batched cache lookups and the singleflight
// publication.
func TestBatchedExecuteParallelRace(t *testing.T) {
	const rows = 90
	tbl := wideTable(t, rows)
	base := Config{
		Searcher:   batchScript(rows),
		Classifier: constClassifier("museum"),
		Types:      []string{"museum", "restaurant"},
		K:          10,
	}
	seqRes, err := base.Annotate(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	seq := fmt.Sprintf("%+v", seqRes.Annotations)

	for _, kind := range matrixCaches {
		for _, p := range matrixParallelism {
			label := fmt.Sprintf("cache=%s parallelism=%d", kind, p)
			cfg := base
			cfg.Parallelism = p
			cfg.Cache = matrixCache(t, kind, cfg, tbl)
			var wg sync.WaitGroup
			results := make([]*Result, 6)
			errs := make([]error, 6)
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g], errs[g] = cfg.Annotate(context.Background(), tbl)
				}(g)
			}
			wg.Wait()
			totalQ, totalHits := 0, 0
			for g := range results {
				if errs[g] != nil {
					t.Fatalf("%s goroutine %d: %v", label, g, errs[g])
				}
				if got := fmt.Sprintf("%+v", results[g].Annotations); got != seq {
					t.Errorf("%s goroutine %d: annotations differ from sequential run", label, g)
				}
				totalQ += results[g].Queries
				totalHits += results[g].CacheHits
			}
			switch kind {
			case "nil":
				if totalQ != 6*rows || totalHits != 0 {
					t.Errorf("%s: total queries = %d, hits = %d, want %d and 0", label, totalQ, totalHits, 6*rows)
				}
			case "fresh":
				// Singleflight across the six concurrent tables: one backend
				// query per unique cell value, total.
				if misses := cfg.Cache.Stats().Misses; misses != rows {
					t.Errorf("%s: cache misses = %d, want %d (one per unique query)", label, misses, rows)
				}
				if totalQ != rows || totalHits != 5*rows {
					t.Errorf("%s: total queries = %d, hits = %d across tables, want %d and %d", label, totalQ, totalHits, rows, 5*rows)
				}
			case "warm":
				if totalQ != 0 || totalHits != 6*rows {
					t.Errorf("%s: total queries = %d, hits = %d, want 0 and %d", label, totalQ, totalHits, 6*rows)
				}
			}
		}
	}
}

// TestSearchAllAbandonsInFlight: a cancellation aborts a round-trip that is
// already in flight — the run returns promptly with ctx.Err() instead of
// waiting the backend out.
func TestSearchAllAbandonsInFlight(t *testing.T) {
	cfg := Config{
		Searcher:   blockingBackend{},
		Classifier: constClassifier("museum"),
		Types:      []string{"museum"},
		K:          10,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cfg.Annotate(ctx, wideTable(t, 3))
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled in-flight search did not surface an error")
	}
}

var errBackendDown = errors.New("backend down")

// failingBackend fails every batch holding its poison query once release is
// closed, and holds every other batch until its context is done: a sibling
// only returns once a failure has cancelled it. Each batch that reaches it is
// announced on entered while there is room.
type failingBackend struct {
	poison  string
	release chan struct{}
	entered chan struct{}
}

func (b *failingBackend) SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	if slices.Contains(queries, b.poison) {
		<-b.release
		return nil, errBackendDown
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// awaitRun returns what a run started with goRun reports, failing the test
// when the run never finishes.
func awaitRun(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never finished: a failed chunk left its siblings waiting", what)
		return nil
	}
}

func goRun(run func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- run() }()
	return done
}

// TestChunkFailureCancelsSiblings: a failed chunk cancels the table's other
// chunks, and a failed table its batch's other tables, so both return the
// backend's error instead of waiting on work that cannot finish. A request
// waiting in the shared cache on keys the failed run held takes them over and
// gets its answers.
func TestChunkFailureCancelsSiblings(t *testing.T) {
	leakcheck.Goroutines(t)
	ctx := context.Background()
	tbl, small := wideTable(t, 64), wideTable(t, 3)
	failing := func(cache *qcache.Cache) (Config, *failingBackend) {
		// One announcement per chunk of the 64-row table at Parallelism 4.
		b := &failingBackend{poison: "Louvre Annex 40", release: make(chan struct{}), entered: make(chan struct{}, 4)}
		return Config{Searcher: b, Classifier: constClassifier("museum"), Types: []string{"museum"}, K: 10, Parallelism: 4, Cache: cache}, b
	}
	for _, cache := range []*qcache.Cache{nil, qcache.New()} {
		cfg, b := failing(cache)
		close(b.release)
		err := awaitRun(t, goRun(func() error { _, err := cfg.Annotate(ctx, tbl); return err }), "Annotate")
		if !errors.Is(err, errBackendDown) {
			t.Errorf("cache=%v: Annotate error = %v, want the backend's", cache != nil, err)
		}
		err = awaitRun(t, goRun(func() error { _, err := cfg.AnnotateBatch(ctx, []*table.Table{small, tbl}); return err }), "AnnotateBatch")
		if !errors.Is(err, errBackendDown) {
			t.Errorf("cache=%v: AnnotateBatch error = %v, want the backend's", cache != nil, err)
		}
	}

	cache := qcache.New()
	cfg, b := failing(cache)
	failed := goRun(func() error { _, err := cfg.Annotate(ctx, tbl); return err })
	for range 4 { // every chunk in hand, every key pending
		<-b.entered
	}
	other := cfg
	other.Searcher = batchScript(64)
	var res *Result
	answered := goRun(func() (err error) { res, err = other.Annotate(ctx, tbl); return err })
	close(b.release)
	if err := awaitRun(t, failed, "the failing request"); !errors.Is(err, errBackendDown) {
		t.Errorf("failing request error = %v, want the backend's", err)
	}
	if err := awaitRun(t, answered, "the waiting request"); err != nil {
		t.Fatalf("waiting request failed with the other's error: %v", err)
	}
	if len(res.Annotations) != 64 || res.CacheMisses+res.CacheHits != 64 {
		t.Errorf("waiting request: %d annotations, %d misses + %d hits, want 64 annotations from 64 lookups", len(res.Annotations), res.CacheMisses, res.CacheHits)
	}
}
