package search

import (
	"context"
	"slices"

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
// Concurrency: queries are safe for any number of concurrent readers; nothing
// in the index changes after it is built.
type ShardedIndex struct {
	shards []*Index
	nDocs  int
	// vocab is every shard's dictionary merged and sorted: the id space of
	// Result.Terms.
	vocab []string
}

// newShardedIndex returns the shell Freeze fills.
func newShardedIndex(shards, nDocs int) *ShardedIndex {
	s := &ShardedIndex{
		shards: make([]*Index, shards),
		nDocs:  nDocs,
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

// global converts a shard-local hit list to global doc ids in place.
func global(hits []hit, shard, n int) []hit {
	for i := range hits {
		hits[i].doc = hits[i].doc*n + shard
	}
	return hits
}

// scored is what one topDocsBatch call hands to materialize: per shard and
// query the shard's top-k, in one flat allocation a batch.
type scored struct {
	shards, queries int
	// lists has one row of queries hit lists per shard: global doc ids, best
	// first, nil for a nil query.
	lists [][]hit
}

// row returns shard si's hit lists.
func (b scored) row(si int) [][]hit { return b.lists[si*b.queries:][:b.queries] }

// scoreShard scores a whole batch of pre-normalized queries against shard si
// into its row of b: term ids are resolved once per batch through a shared
// resolver, one pooled accumulator serves every query, and the list of a nil
// query stays nil. The lists are windows of arena, not aliases of accumulator
// storage — a batch needs all of them alive at once.
func (b scored) scoreShard(ix *Index, si int, qterms [][]string, k int, arena []hit) {
	acc := ix.getAccumulator()
	defer ix.putAccumulator(acc)
	r := newTermResolver(ix.col, len(qterms))
	lists := b.row(si)
	var buf [8]int32 // term ids of the query being scored
	tids := buf[:0]
	for q, terms := range qterms {
		if terms == nil {
			continue
		}
		n := len(arena)
		tids = r.resolve(terms, tids)
		arena = append(arena, ix.topDocsResolved(acc, tids, k)...)
		lists[q] = global(arena[n:len(arena):len(arena)], si, b.shards)
	}
}

// next removes and returns the best hit left for query q, which must have
// one: the head of one of its per-shard lists, each sorted best-first under
// the (score desc, doc asc) order, so successive calls yield the global
// ranking in that exact order.
func (b scored) next(q int) hit {
	var best *[]hit
	for si := 0; si < b.shards; si++ {
		if l := &b.row(si)[q]; len(*l) > 0 && (best == nil || worseHit((*best)[0], (*l)[0])) {
			best = l
		}
	}
	h := (*best)[0]
	*best = (*best)[1:]
	return h
}

// topDocsBatch is the only shard fan-out: each shard scores the whole query
// batch through its columnar kernel (normalized query terms are shared across
// shards, term-id resolution is shared across the batch within each shard)
// into its own top-k per query; scored.next merges them under the exact
// monolithic order. A batch allocates its bookkeeping once — the scored and one
// hit arena the shards share a window each of — and the shards are the items
// of one pool.Run with a worker each, the calling goroutine among them, so a
// one-shard index starts none.
func (s *ShardedIndex) topDocsBatch(qterms [][]string, k int) scored {
	n := len(s.shards)
	queries := 0
	for _, terms := range qterms {
		if terms != nil {
			queries++
		}
	}
	b := scored{shards: n, queries: len(qterms), lists: make([][]hit, n*len(qterms))}
	// Shard 0 is the largest (documents go round-robin), so no shard returns
	// more than window hits for the batch.
	window := queries * min(k, len(s.shards[0].docs))
	arena := make([]hit, n*window)
	// Scoring cannot be abandoned half way — the merge reads every shard's
	// lists — so the pool runs under a context that is never done.
	_ = pool.Run(context.Background(), n, n, func(si int) {
		b.scoreShard(s.shards[si], si, qterms, k, arena[si*window:si*window:(si+1)*window])
	})
	return b
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

// materialize merges the per-shard lists of query q (normalised terms qterms)
// into its global top-k and renders each hit in the document's owning shard —
// its snippet windows and term-id column live there — anchored at the first
// body word that is one of the query's terms.
func (s *ShardedIndex) materialize(b scored, q int, qterms []string, k int) []Result {
	found := 0
	for si := range s.shards {
		found += len(b.row(si)[q])
	}
	out := make([]Result, min(found, k))
	// The terms' vocabulary ids, what the column stores; a term no document
	// holds cannot anchor and is left out.
	var buf [8]int32
	want := buf[:0]
	for _, t := range qterms {
		if v, ok := slices.BinarySearch(s.vocab, t); ok {
			want = append(want, int32(v))
		}
	}
	for i := range out {
		h := b.next(q)
		si, local := h.doc%len(s.shards), h.doc/len(s.shards)
		sh := s.shards[si]
		d := sh.docs[local]
		lo, hi := sh.base[local], sh.base[local+1]
		snippet, start, end := sh.snippetAt(local, sh.terms.anchor(lo, hi, want))
		out[i] = Result{
			URL:     d.URL,
			Title:   d.Title,
			Snippet: snippet,
			Terms:   sh.terms.window(lo+start, lo+end),
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
// amortized across the batch.
func (s *ShardedIndex) SearchBatch(queries []string, k int) [][]Result {
	out := make([][]Result, len(queries))
	if k <= 0 || s.nDocs == 0 {
		return out
	}
	qterms := make([][]string, len(queries))
	first := make(map[string]int, len(queries)) // a query's first occurrence
	for i, q := range queries {
		if _, dup := first[q]; dup {
			continue
		}
		first[q] = i
		if t := textproc.NormalizeTokens(q); len(t) > 0 {
			qterms[i] = t
		}
	}
	b := s.topDocsBatch(qterms, k)
	for i, q := range queries {
		if j := first[q]; j < i {
			out[i] = copyResults(out[j])
		} else if qterms[i] != nil {
			out[i] = s.materialize(b, i, qterms[i], k)
		}
	}
	return out
}
