package search

import (
	"context"
	"strings"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/textproc"
)

// ShardedIndex is the query engine, the read side of the index: an immutable
// inverted index with BM25 ranking, obtained from Builder.Freeze or
// ReadShardedIndex, partitioned across N shard Indexes so one query's scoring
// work can run on N cores, with results byte-identical at every N (N = 1 is
// the monolithic index): documents are assigned round-robin (global doc id g
// lives in shard g%N at local id g/N — a monotonic mapping, so per-shard doc
// order equals global order restricted to the shard), ranking constants
// (per-term idf, average document length) are derived corpus-wide when the
// index is compiled, and per-shard bounded top-k results merge under the
// exact (score desc, global doc asc) total order. Because a document's BM25
// score accumulates per query term in query order within its one owning
// shard, every float operation matches the one-shard engine's and scores are
// bit-identical, not merely close.
//
// Concurrency: queries are safe for any number of concurrent readers; only
// the per-shard query counters change.
type ShardedIndex struct {
	shards []*Index
	nDocs  int
	// vocab is every shard's dictionary merged and sorted: the id space of
	// Result.Terms.
	vocab []string

	// queries[s] counts queries scored by shard s (every query fans out to
	// all shards, so the counts advance together; they are exposed on
	// /statz to make the fan-out observable).
	queries []atomic.Int64
}

// newShardedIndex returns the shell the Builder and the TIDX decoder fill.
func newShardedIndex(shards, nDocs int) *ShardedIndex {
	s := &ShardedIndex{
		shards:  make([]*Index, shards),
		nDocs:   nDocs,
		queries: make([]atomic.Int64, shards),
	}
	for i := range s.shards {
		s.shards[i] = &Index{}
	}
	return s
}

// NumShards returns the shard count.
func (s *ShardedIndex) NumShards() int { return len(s.shards) }

// Len returns the number of indexed documents across all shards.
func (s *ShardedIndex) Len() int { return s.nDocs }

// Vocab returns the index-wide sorted vocabulary Result.Terms index into. The
// slice is shared with the index: read-only.
func (s *ShardedIndex) Vocab() []string { return s.vocab }

// ShardQueryCounts returns a snapshot of per-shard query counts.
func (s *ShardedIndex) ShardQueryCounts() []int64 {
	out := make([]int64, len(s.queries))
	for i := range s.queries {
		out[i] = s.queries[i].Load()
	}
	return out
}

// ResetQueryCounts zeroes the per-shard query counters.
func (s *ShardedIndex) ResetQueryCounts() {
	for i := range s.queries {
		s.queries[i].Store(0)
	}
}

// global converts a shard-local hit list to global doc ids in place.
func global(hits []hit, shard, n int) []hit {
	for i := range hits {
		hits[i].doc = hits[i].doc*n + shard
	}
	return hits
}

// topDocsBatchLocal scores a whole batch of pre-normalized queries against
// this one index: term ids are resolved once per batch through a shared
// resolver, one pooled accumulator serves every query, and out[i] is nil for
// nil qterms[i]. The returned hits are copies, not aliases of accumulator
// storage — a batch needs all of them alive at once.
func (ix *Index) topDocsBatchLocal(qterms [][]string, k int) [][]hit {
	acc := ix.getAccumulator()
	defer ix.putAccumulator(acc)
	r := newTermResolver(ix.col, len(qterms))
	var tids []int32
	out := make([][]hit, len(qterms))
	for i, terms := range qterms {
		if terms == nil {
			continue
		}
		tids = r.resolve(terms, tids)
		out[i] = append([]hit(nil), ix.topDocsResolved(acc, tids, k)...)
	}
	return out
}

// topDocsBatch is the only shard fan-out: each shard scores the whole query
// batch through its columnar kernel (normalized query terms are shared across
// shards, term-id resolution is shared across the batch within each shard) and
// the per-shard lists merge per query into the global top-k under the exact
// monolithic order. The shards are the items of one pool.Run with a worker
// each, the calling goroutine among them, so a one-shard index starts none.
// The returned hits carry global doc ids; out[i] is nil for nil qterms[i].
func (s *ShardedIndex) topDocsBatch(qterms [][]string, k int) [][]hit {
	n := len(s.shards)
	scored := 0
	for _, terms := range qterms {
		if terms != nil {
			scored++
		}
	}
	lists := make([][][]hit, n) // lists[shard][query]
	scoreShard := func(si int) {
		s.queries[si].Add(int64(scored))
		perQuery := s.shards[si].topDocsBatchLocal(qterms, k)
		for i := range perQuery {
			perQuery[i] = global(perQuery[i], si, n)
		}
		lists[si] = perQuery
	}
	// Scoring cannot be abandoned half way — the merge below reads every
	// shard's lists — so the pool runs under a context that is never done.
	_ = pool.Run(context.Background(), n, n, scoreShard)
	out := make([][]hit, len(qterms))
	scratch := make([][]hit, n)
	for i := range qterms {
		if qterms[i] == nil {
			continue
		}
		for si := range lists {
			scratch[si] = lists[si][i]
		}
		out[i] = mergeHits(scratch, k)
	}
	return out
}

// copyResults clones one query's results for a duplicate occurrence in a
// batch, preserving nil-ness so a duplicate's results match byte-for-byte
// what re-running the query would have returned.
func copyResults(src []Result) []Result {
	if src == nil {
		return nil
	}
	dst := make([]Result, len(src))
	copy(dst, src)
	return dst
}

// mergeHits merges per-shard hit lists (each sorted best-first under the
// (score desc, doc asc) order) into the global top-k, preserving that exact
// total order. Shard counts are small, so an O(k·shards) selection is used.
func mergeHits(lists [][]hit, k int) []hit {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total > k {
		total = k
	}
	out := make([]hit, 0, total)
	heads := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for si, l := range lists {
			if heads[si] >= len(l) {
				continue
			}
			if best < 0 || worseHit(lists[best][heads[best]], l[heads[si]]) {
				best = si
			}
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// materialize renders globally-merged hits, generating each snippet in the
// document's owning shard (its snippet windows and positions live there).
func (s *ShardedIndex) materialize(hits []hit, qterms []string) []Result {
	out := make([]Result, len(hits))
	if len(hits) == 0 {
		return out
	}
	n := len(s.shards)
	for i, h := range hits {
		sh := s.shards[h.doc%n]
		local := h.doc / n
		d := sh.docs[local]
		snippet, start, end := sh.snippet(local, qterms)
		out[i] = Result{
			URL:     d.URL,
			Title:   d.Title,
			Snippet: snippet,
			Terms:   sh.terms.window(local, start, end),
			Score:   h.score,
		}
	}
	return out
}

// Search returns the top-k English documents for the query under BM25,
// highest score first. Ties break by document id for determinism. It is a
// batch of one.
func (s *ShardedIndex) Search(query string, k int) []Result {
	return s.SearchBatch([]string{query}, k)[0]
}

// SearchBatch resolves a batch of queries: out[i] is the top-k of queries[i]
// alone, nil when k <= 0, the index is empty or the query normalizes to
// nothing. Queries are normalized once, duplicate queries are scored and
// materialized once (later occurrences copy the first's results), and every
// shard scores the deduplicated batch in a single parallel pass with
// batch-shared term-id resolution, so the per-query fan-out and setup cost is
// amortized across the batch. Per-shard query counters count scored (unique)
// queries.
func (s *ShardedIndex) SearchBatch(queries []string, k int) [][]Result {
	out := make([][]Result, len(queries))
	if k <= 0 || s.nDocs == 0 {
		return out
	}
	qterms := make([][]string, len(queries))
	dupOf := make([]int, len(queries))
	seen := make(map[string]int, len(queries))
	for i, q := range queries {
		if j, ok := seen[q]; ok {
			dupOf[i] = j
			continue
		}
		seen[q] = i
		dupOf[i] = -1
		if t := textproc.NormalizeTokens(q); len(t) > 0 {
			qterms[i] = t
		}
	}
	hits := s.topDocsBatch(qterms, k)
	for i := range queries {
		if j := dupOf[i]; j >= 0 {
			out[i] = copyResults(out[j])
			continue
		}
		if qterms[i] == nil {
			continue
		}
		out[i] = s.materialize(hits[i], qterms[i])
	}
	return out
}

// SearchPhrase is Search with phrase semantics for double-quoted segments
// (the paper submits training queries as phrases, "Melisse restaurant",
// §5.2.1): segments wrapped in double quotes must occur as adjacent stemmed
// tokens in the document body, the rest of the query ranks as usual. The
// 4k-candidate BM25 list (merged globally) is verified in candidate order
// against each owning shard's positional postings — a position-list
// intersection per candidate rather than a re-tokenization of its body —
// and truncated to the first k survivors.
//
//	SearchPhrase(`"Chez Martin" restaurant`, 10)
func (s *ShardedIndex) SearchPhrase(query string, k int) []Result {
	phrases, remainder := splitPhrases(query)
	if len(phrases) == 0 {
		return s.Search(query, k)
	}
	if k <= 0 || s.nDocs == 0 {
		return nil
	}
	qterms := textproc.NormalizeTokens(remainder + " " + strings.Join(phrases, " "))
	if len(qterms) == 0 {
		return nil
	}
	want := make([][]string, len(phrases))
	for i, p := range phrases {
		want[i] = textproc.NormalizeTokens(p)
	}
	candidates := s.topDocsBatch([][]string{qterms}, k*4)[0]
	n := len(s.shards)
	var keep []hit
	for _, h := range candidates {
		sh, local := s.shards[h.doc%n], h.doc/n
		ok := true
		for _, w := range want {
			if !sh.containsPhrase(local, w) {
				ok = false
				break
			}
		}
		if ok {
			keep = append(keep, h)
			if len(keep) == k {
				break
			}
		}
	}
	if len(keep) == 0 {
		return nil
	}
	return s.materialize(keep, qterms)
}
