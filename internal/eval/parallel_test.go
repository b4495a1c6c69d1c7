package eval

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/qcache"
)

// TestParallelCorpusMatchesSequential annotates the whole GFT corpus
// sequentially and at parallelism 8 and asserts the two result sets are
// byte-identical — annotations, scores, query counts and skip counters.
// Run under -race this also exercises the execute-stage worker pool, the
// concurrent engine readers and the batch API for data races.
func TestParallelCorpusMatchesSequential(t *testing.T) {
	l := getLab(t)
	t.Parallel()

	render := func(parallelism int) string {
		a := l.config(l.SVM, true, false)
		a.Parallelism = parallelism
		results, err := a.AnnotateBatch(context.Background(), l.GFT.Tables)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		out := ""
		for i, tbl := range l.GFT.Tables {
			res := results[i]
			out += fmt.Sprintf("%s queries=%d skipped=%v\n", tbl.Name, res.Queries, len(res.Skipped))
			for _, ann := range res.Annotations {
				out += fmt.Sprintf("  %d,%d %s %.6f\n", ann.Row, ann.Col, ann.Type, ann.Score)
			}
		}
		return out
	}

	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatal("parallel corpus annotation differs from the sequential run")
	}
	if seq == "" {
		t.Fatal("empty corpus snapshot")
	}
}

// TestCrossTableCacheWarmsAcrossRuns annotates the GFT corpus twice through
// one shared verdict cache: the warm pass must answer every unique query
// from the cache and issue zero search-engine queries.
func TestCrossTableCacheWarmsAcrossRuns(t *testing.T) {
	l := getLab(t)
	t.Parallel()

	cache := qcache.New()
	run := func() (queries, hits, misses int) {
		a := l.config(l.SVM, true, false)
		a.Cache = cache
		a.CacheSalt = "cache-test"
		a.Parallelism = 4
		results, err := a.AnnotateBatch(context.Background(), l.GFT.Tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			queries += res.Queries
			hits += res.CacheHits
			misses += res.CacheMisses
		}
		return
	}

	coldQ, coldHits, coldMisses := run()
	if coldQ == 0 {
		t.Fatal("cold run issued no queries")
	}
	if coldMisses != coldQ {
		t.Errorf("cold run: misses %d != queries %d", coldMisses, coldQ)
	}
	// Tables repeat cell values across the corpus, so even the cold run
	// should see some cross-table hits.
	if coldHits == 0 {
		t.Error("cold run saw no cross-table hits; GFT tables share no cell values?")
	}

	warmQ, warmHits, warmMisses := run()
	if warmQ != 0 || warmMisses != 0 {
		t.Errorf("warm run issued %d queries (%d misses), want 0: cache did not warm", warmQ, warmMisses)
	}
	if warmHits == 0 {
		t.Error("warm run reported no cache hits")
	}

	stats := cache.Stats()
	if stats.Entries == 0 || stats.Hits == 0 {
		t.Errorf("cache stats = %+v, want populated", stats)
	}
	// Warm hit rate over both runs must exceed 50%: the second pass is
	// all hits, the first pass adds some.
	if r := stats.HitRate(); r <= 0.5 {
		t.Errorf("overall hit rate = %.2f, want > 0.5 after a warm pass", r)
	}
	// The cache must not leak verdicts across salts.
	salted := l.config(l.SVM, true, false)
	salted.Cache = cache
	salted.CacheSalt = "other-salt"
	res, err := salted.Annotate(context.Background(), l.GFT.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Errorf("different salt got %d cache hits, want 0", res.CacheHits)
	}
}
