package annotate

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/table"
)

// scriptedSearcher is a Searcher backed by a fixed query→results map — the
// pluggable-backend seam the pipeline is decoupled through — written as a
// per-query function behind the SearchFunc adapter. It counts queries
// atomically so tests can assert query volume under concurrency.
type scriptedSearcher struct {
	results map[string][]search.Result
	calls   atomic.Int64
}

func (s *scriptedSearcher) Search(query string, k int) []search.Result {
	s.calls.Add(1)
	r := s.results[query]
	if len(r) > k {
		r = r[:k]
	}
	return r
}

func (s *scriptedSearcher) SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error) {
	return SearchFunc(s.Search).SearchBatchContext(ctx, queries, k)
}

// snippets builds k results for a query.
func snippets(k int) []search.Result {
	out := make([]search.Result, k)
	for i := range out {
		out[i] = search.Result{Snippet: fmt.Sprintf("snippet %d about the museum", i)}
	}
	return out
}

func scriptedTable(t *testing.T, names ...string) *table.Table {
	t.Helper()
	tbl := table.New("scripted", table.Column{Header: "Name", Type: table.Text})
	for _, n := range names {
		if err := tbl.AppendRow(n); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestPluggableSearcher proves the annotator runs against any Searcher, not
// just *search.Engine.
func TestPluggableSearcher(t *testing.T) {
	s := &scriptedSearcher{results: map[string][]search.Result{
		"Louvre": snippets(10),
	}}
	a := scriptedConfig(s)
	res := annotateTable(a, scriptedTable(t, "Louvre", "Unknown Place"))
	if len(res.Annotations) != 1 {
		t.Fatalf("annotations = %d, want 1 (only the scripted query returns snippets)", len(res.Annotations))
	}
	ann := res.Annotations[0]
	if ann.Type != "museum" || ann.Score != 1.0 {
		t.Errorf("annotation = %+v, want museum score 1.0", ann)
	}
	if res.Queries != 2 {
		t.Errorf("queries = %d, want 2", res.Queries)
	}
}

// TestParallelTableIdentical annotates one table at several parallelism
// settings; the order-preserving merge stage must keep the output
// byte-identical to the sequential run. Result.Batches is normalized away:
// the batch chunking follows the worker count by design, so the batch-call
// count is an execution statistic outside the identity guarantee (which
// covers annotations, scores, query and cache counters).
func TestParallelTableIdentical(t *testing.T) {
	f := newFixture(t)
	tbl := poiTable(t)
	render := func(res *Result) string {
		res.Batches = 0
		return fmt.Sprintf("%+v", res)
	}
	base := render(annotateTable(f.config(), tbl))
	for _, p := range []int{2, 4, 16} {
		a := f.config()
		a.Parallelism = p
		if got := render(annotateTable(a, tbl)); got != base {
			t.Errorf("parallelism %d produced a different result\nseq: %s\npar: %s", p, base, got)
		}
	}
}

// TestAnnotateTableContextCancelled: a cancelled context aborts before the
// execute stage touches the backend, on both the sequential and the
// parallel path.
func TestAnnotateTableContextCancelled(t *testing.T) {
	s := &scriptedSearcher{results: map[string][]search.Result{"Louvre": snippets(10)}}
	a := scriptedConfig(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Annotate(ctx, scriptedTable(t, "Louvre")); err == nil {
		t.Fatal("cancelled context did not abort annotation")
	}
	a.Parallelism = 4
	if _, err := a.AnnotateBatch(ctx, []*table.Table{scriptedTable(t, "Louvre")}); err == nil {
		t.Fatal("cancelled context did not abort the batch API")
	}
	if s.calls.Load() != 0 {
		t.Errorf("backend saw %d queries after cancellation, want 0", s.calls.Load())
	}
	// Cancellation must hold even when a warm cache would answer every
	// query without the execute stage ever blocking.
	a.Cache = qcache.New()
	annotateTable(a, scriptedTable(t, "Louvre")) // warm
	if _, err := a.Annotate(ctx, scriptedTable(t, "Louvre")); err == nil {
		t.Fatal("cancelled context ignored on the fully-cached path")
	}
}

// TestSharedCacheAcrossTables: two tables with the same cells through one
// cache — the second table costs zero backend queries.
func TestSharedCacheAcrossTables(t *testing.T) {
	s := &scriptedSearcher{results: map[string][]search.Result{"Louvre": snippets(10)}}
	a := scriptedConfig(s)
	a.Cache = qcache.New()

	res1 := annotateTable(a, scriptedTable(t, "Louvre", "Louvre"))
	if res1.Queries != 1 || res1.CacheMisses != 1 || res1.CacheHits != 0 {
		t.Errorf("cold table: queries=%d hits=%d misses=%d, want 1/0/1",
			res1.Queries, res1.CacheHits, res1.CacheMisses)
	}
	res2 := annotateTable(a, scriptedTable(t, "Louvre"))
	if res2.Queries != 0 || res2.CacheHits != 1 {
		t.Errorf("warm table: queries=%d hits=%d, want 0/1", res2.Queries, res2.CacheHits)
	}
	if len(res2.Annotations) != 1 {
		t.Errorf("warm table annotations = %d, want 1 (verdict replayed from cache)", len(res2.Annotations))
	}
	if got := s.calls.Load(); got != 1 {
		t.Errorf("backend calls = %d, want 1", got)
	}
	// A config change (k) must miss: verdicts are keyed by the full
	// decision fingerprint.
	a.K = 5
	res3 := annotateTable(a, scriptedTable(t, "Louvre"))
	if res3.CacheHits != 0 || res3.Queries != 1 {
		t.Errorf("changed k still hit the cache: %+v", res3)
	}
	// Distinct salts never exchange verdicts.
	b := scriptedConfig(s)
	b.Cache = a.Cache
	b.CacheSalt = "other"
	if res := annotateTable(b, scriptedTable(t, "Louvre")); res.CacheHits != 0 {
		t.Errorf("different salt got %d cache hits, want 0", res.CacheHits)
	}
}

// TestAnnotateTablesBatch: the batch API preserves input order and matches
// per-table annotation at every parallelism.
func TestAnnotateTablesBatch(t *testing.T) {
	f := newFixture(t)
	tables := []*table.Table{
		poiTable(t),
		scriptedTable(t, "Musée Lavande"),
		scriptedTable(t, "Chez Martin", "The Golden Fig"),
	}
	a := f.config()
	want := make([]string, len(tables))
	for i, tbl := range tables {
		res := annotateTable(a, tbl)
		res.Batches = 0
		want[i] = fmt.Sprintf("%+v", res)
	}
	for _, p := range []int{-1, 0, 1, 3, 8} {
		a.Parallelism = p
		results, err := a.AnnotateBatch(context.Background(), tables)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(results) != len(tables) {
			t.Fatalf("parallelism %d: %d results, want %d", p, len(results), len(tables))
		}
		for i, res := range results {
			res.Batches = 0 // the one statistic that follows the worker count
			if got := fmt.Sprintf("%+v", res); got != want[i] {
				t.Errorf("parallelism %d, table %d: batch result differs from Annotate", p, i)
			}
		}
	}
}
