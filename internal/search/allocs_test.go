package search

import "testing"

// TestAllocsSearchBatch bounds the batch bookkeeping: a batch allocates its
// scored lists, one hit arena and its queries' vocabulary ids, whatever the
// shard count, and a query adds its normalised terms and its results. The
// batch below once made 218 allocations (6.8 a query) and the lone Search 23;
// with the scored term ids gone (snippets anchor on the term-id column) 82 and
// 11; with the terms resolved once a batch instead of once a shard, 77 and 12.
func TestAllocsSearchBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ix := buildSharded(augmentedCorpus(6000), 2)
	queries := augmentedQueries(32)
	ix.SearchBatch(queries, 10) // fill the accumulator pools
	if per := testing.AllocsPerRun(50, func() { ix.SearchBatch(queries, 10) }) / float64(len(queries)); per > 2.5 {
		t.Errorf("a 32-query SearchBatch allocates %.2f times a query, want at most 2.5", per)
	}
	if lone := testing.AllocsPerRun(50, func() { ix.Search(queries[0], 10) }); lone > 12 {
		t.Errorf("a lone Search allocates %.0f times, want at most 12", lone)
	}
}
