package search

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// buildSharded indexes docs across n shards.
func buildSharded(docs []Document, n int) *ShardedIndex {
	return Build(n, slices.Values(docs))
}

// checkBitIdentical asserts got matches want exactly — including score
// bits, which the sharded engine guarantees (same float operations in the
// same order), a stricter bound than the reference harness's 1e-9.
func checkBitIdentical(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, monolithic has %d\n got: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: result %d differs:\n got: %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

// TestShardedMatchesMonolithic differentially tests the engine at several
// shard counts against the monolith — the same corpus on one shard — over
// randomized seeded corpora: identical ordering and bit-identical scores, and
// the reference implementation agrees within 1e-9.
func TestShardedMatchesMonolithic(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			docs := randomCorpus(rng, 20+rng.Intn(120))
			ix := buildSharded(docs, 1)
			queries := randomQueries(rng, 40)
			for _, shards := range []int{1, 2, 3, 4, 7, 16} {
				six := buildSharded(docs, shards)
				if six.Len() != ix.Len() {
					t.Fatalf("shards=%d: Len %d, want %d", shards, six.Len(), ix.Len())
				}
				for _, q := range queries {
					for _, k := range []int{1, 3, 10, 1000} {
						label := fmt.Sprintf("shards=%d Search(%q, %d)", shards, q, k)
						checkBitIdentical(t, label, six.Search(q, k), ix.Search(q, k))
						checkSameResults(t, label+" vs reference", six.Search(q, k), refSearch(docs, q, k))
					}
				}
				// The batch path must agree with the single-query path.
				for _, k := range []int{1, 10} {
					batched := six.SearchBatch(queries, k)
					for i, q := range queries {
						checkBitIdentical(t, fmt.Sprintf("shards=%d SearchBatch[%d](%q, %d)", shards, i, q, k),
							batched[i], ix.Search(q, k))
					}
				}
			}
		})
	}
}

// TestIndexSearchBatchMatchesSearch: a multi-query batch with duplicates
// equals each query issued alone (including nil/empty edge semantics). Search
// is itself a batch of one, so the single form's oracle is refSearch.
func TestIndexSearchBatchMatchesSearch(t *testing.T) {
	docs := smallDocs()
	queries := []string{"museum", "", "melisse restaurant", "zzzzqqqq", "the of", "tasting menu", "museum", "melisse restaurant", ""}
	for _, shards := range []int{1, 2} {
		ix := buildSharded(docs, shards)
		batched := ix.SearchBatch(queries, 3)
		for i, q := range queries {
			single := ix.Search(q, 3)
			label := fmt.Sprintf("shards=%d SearchBatch[%d](%q)", shards, i, q)
			checkBitIdentical(t, label, batched[i], single)
			if (single == nil) != (batched[i] == nil) {
				t.Errorf("%s: nil-ness differs (single %v, batched %v)", label, single == nil, batched[i] == nil)
			}
			ref := refSearch(docs, q, 3)
			checkSameResults(t, fmt.Sprintf("shards=%d Search(%q)", shards, q), single, ref)
			if (single == nil) != (ref == nil) {
				t.Errorf("shards=%d Search(%q): nil-ness differs from the reference (single %v, reference %v)", shards, q, single == nil, ref == nil)
			}
		}
		if out := ix.SearchBatch(queries, 0); len(out) != len(queries) {
			t.Errorf("shards=%d: SearchBatch k=0 returned %d slots, want %d", shards, len(out), len(queries))
		}
		if got := ix.Search("museum", 0); got != nil {
			t.Errorf("shards=%d: Search k=0 = %v, want nil", shards, got)
		}
	}
}

// TestShardedPersistRoundTrip: a sharded index round-trips through the
// persistence format — same shard count, same results.
func TestShardedPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	docs := randomCorpus(rng, 50)
	six := buildSharded(docs, 4)

	var buf bytes.Buffer
	if _, err := six.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// The bytes-based entry is the one the snapshot bundle reader uses;
	// exercise it here so both spellings stay equivalent.
	loaded, err := ReadShardedIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 4 || loaded.Len() != six.Len() {
		t.Fatalf("loaded %d shards / %d docs, want 4 / %d", loaded.NumShards(), loaded.Len(), six.Len())
	}
	for _, q := range randomQueries(rng, 30) {
		checkBitIdentical(t, "loaded "+q, loaded.Search(q, 10), six.Search(q, 10))
	}
	// The loaded index writes from its decoded columns: the same bytes.
	if !bytes.Equal(tidx(t, loaded), data) {
		t.Error("loaded.WriteTo does not reproduce the bytes it was loaded from")
	}
}

// TestReadShardedIndexAcceptsMonolithic: the monolith is the one-shard case
// of the same format and loads with identical behaviour.
func TestReadShardedIndexAcceptsMonolithic(t *testing.T) {
	ix := smallIndex()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadShardedIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", loaded.NumShards())
	}
	checkBitIdentical(t, "monolithic-as-sharded", loaded.Search("melisse restaurant", 5), ix.Search("melisse restaurant", 5))
}

// TestShardedEngineCounters: the engine over a sharded index accounts
// queries and batches once per query, whatever the shard count.
func TestShardedEngineCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewShardedEngine(buildSharded(randomCorpus(rng, 40), 4))
	e.Search("museum", 3)
	if _, err := e.SearchBatchContext(context.Background(), []string{"museum", "restaurant", "hotel"}, 3); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Queries != 4 {
		t.Errorf("Queries = %d, want 4", st.Queries)
	}
	if st.Batches != 1 || st.BatchedQueries != 3 {
		t.Errorf("Batches = %d BatchedQueries = %d, want 1 and 3", st.Batches, st.BatchedQueries)
	}
	if st.Shards != 4 {
		t.Errorf("Shards = %d, want 4", st.Shards)
	}
	e.ResetCounters()
	if st := e.Stats(); st.Queries != 0 || st.Batches != 0 || st.BatchedQueries != 0 {
		t.Errorf("counters not reset: %+v", st)
	}
}

// TestEngineSearchContext: the context-aware batch call refuses an
// already-done context, and an engine with a latency abandons the simulated
// round-trip mid-sleep on cancellation instead of sleeping it out.
func TestEngineSearchContext(t *testing.T) {
	e := NewShardedEngine(smallIndex())
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SearchBatchContext(done, []string{"museum"}, 3); err == nil {
		t.Error("SearchBatchContext accepted a cancelled context")
	}

	// A live context resolves normally and matches Search.
	res, err := e.SearchBatchContext(context.Background(), []string{"museum"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, "SearchBatchContext", res[0], e.index.Search("museum", 3))

	// 10 queries x 50ms simulated latency would sleep half a second; the
	// cancellation must cut that short.
	e.Latency = 50 * time.Millisecond
	ctx, cancelSoon := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelSoon()
	start := time.Now()
	queries := make([]string, 10)
	for i := range queries {
		queries[i] = "museum"
	}
	if _, err := e.SearchBatchContext(ctx, queries, 3); err == nil {
		t.Error("cancelled mid-sleep batch returned no error")
	}
	if took := time.Since(start); took > 300*time.Millisecond {
		t.Errorf("cancellation took %v, want well under the 500ms sleep", took)
	}
}
