package annotate

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

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

// TestExecuteBatches: the execute stage submits chunks — every query carried
// by a batch, the chunk count in Result.Batches — and a per-query function
// behind the SearchFunc adapter yields the identical annotation set.
func TestExecuteBatches(t *testing.T) {
	const rows = 70
	s := batchScript(rows)
	cfg := Config{
		Searcher:   s,
		Classifier: constClassifier("museum"),
		Types:      []string{"museum", "restaurant"},
		K:          10,
	}
	res, err := cfg.Annotate(context.Background(), wideTable(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.batchQueries.Load(); got != rows {
		t.Errorf("batched queries = %d, want %d", got, rows)
	}
	wantChunks := (rows + maxSearchBatch - 1) / maxSearchBatch
	if got := s.batchCalls.Load(); got != int64(wantChunks) {
		t.Errorf("batch calls = %d, want %d (sequential chunking)", got, wantChunks)
	}
	if res.Batches != wantChunks {
		t.Errorf("Result.Batches = %d, want %d", res.Batches, wantChunks)
	}
	if len(res.Annotations) != rows || res.Queries != rows {
		t.Errorf("annotations=%d queries=%d, want %d each", len(res.Annotations), res.Queries, rows)
	}

	// The per-query backend must produce the identical annotation set.
	plain := cfg
	plain.Searcher = &s.scriptedSearcher
	res2, err := plain.Annotate(context.Background(), wideTable(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", res.Annotations) != fmt.Sprintf("%+v", res2.Annotations) {
		t.Error("batch and per-query backends produced different annotations")
	}
}

// TestBatchedExecuteParallelRace runs the batched execute path at
// parallelism >= 4 — without and with a shared cache, plus concurrent
// whole-table fan-out — and asserts outputs match the sequential run.
// Under -race this is the data-race check for the chunked worker pool,
// the batched cache lookups and the singleflight publication.
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

	for _, withCache := range []bool{false, true} {
		cfg := base
		cfg.Parallelism = 8
		if withCache {
			cfg.Cache = qcache.New()
		}
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
		for g := range results {
			if errs[g] != nil {
				t.Fatalf("cache=%v goroutine %d: %v", withCache, g, errs[g])
			}
			if got := fmt.Sprintf("%+v", results[g].Annotations); got != seq {
				t.Errorf("cache=%v goroutine %d: annotations differ from sequential run", withCache, g)
			}
		}
		if withCache {
			// Singleflight across the six concurrent tables: one backend
			// query per unique cell value, total.
			st := cfg.Cache.Stats()
			if st.Misses != rows {
				t.Errorf("cache misses = %d, want %d (one per unique query)", st.Misses, rows)
			}
			totalQ := 0
			for _, r := range results {
				totalQ += r.Queries
			}
			if totalQ != rows {
				t.Errorf("total queries across tables = %d, want %d", totalQ, rows)
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
