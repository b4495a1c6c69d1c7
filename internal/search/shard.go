package search

import (
	"context"
	"slices"

	"repro/internal/pool"
	"repro/internal/textproc"
)

// ShardedIndex is the query engine, the read side of the index: an immutable
// inverted index with BM25 ranking, obtained from Build or ReadShardedIndex,
// partitioned across N shard Indexes so one query's scoring work can run on N
// cores, with results byte-identical at every N (N = 1 is the monolithic
// index): documents are assigned round-robin (global doc id g lives in shard
// g%N at local id g/N — a monotonic mapping, so per-shard doc order equals
// global order restricted to the shard), ranking constants (per-term idf,
// average document length) are derived corpus-wide when the index is
// compiled, and per-shard bounded top-k results merge under the exact (score
// desc, global doc asc) total order. Because a document's BM25 score
// accumulates per query term in query order within its one owning shard,
// every float operation matches the one-shard engine's and scores are
// bit-identical, not merely close.
//
// Concurrency: queries are safe for any number of concurrent readers; nothing
// in the index changes after it is built.
type ShardedIndex struct {
	shards []*Index
	nDocs  int
	// vocab is every shard's dictionary merged and sorted: the id space of
	// Result.Terms and of every shard's columns. id is its inverse.
	vocab []string
	id    map[string]int32
}

// newShardedIndex returns the shell a build fills.
func newShardedIndex(shards int) *ShardedIndex {
	s := &ShardedIndex{shards: make([]*Index, shards)}
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

// setVocab makes the sorted vocab the index's id space.
func (s *ShardedIndex) setVocab(vocab []string) {
	s.vocab, s.id = vocab, make(map[string]int32, len(vocab))
	for v, term := range vocab {
		s.id[term] = int32(v)
	}
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

// scoreShard scores a whole batch of queries, given as vocabulary ids (qids,
// see SearchBatch), against shard si into its row of b: each query planned
// over the shard (columns.plan), one pooled accumulator serving every query,
// and the list of a nil query left nil. The lists are windows of arena, not
// aliases of accumulator storage — a batch needs all of them alive at once.
func (b scored) scoreShard(ix *Index, si int, qids [][]int32, k int, arena []hit) {
	acc := ix.getAccumulator()
	defer ix.putAccumulator(acc)
	lists := b.row(si)
	var buf [8]int32 // term ids of the query being scored
	tids := buf[:0]
	for q, ids := range qids {
		if ids == nil {
			continue
		}
		n := len(arena)
		tids = ix.col.plan(ids, tids)
		arena = append(arena, ix.topDocsResolved(acc, tids, k)...)
		for i := n; i < len(arena); i++ {
			arena[i].doc = arena[i].doc*b.shards + si // the global doc id
		}
		lists[q] = arena[n:len(arena):len(arena)]
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
// batch, resolved once for all of them, through its columnar kernel into its
// own top-k per query; scored.next merges them under the exact monolithic
// order. A batch allocates its bookkeeping once — the scored and one hit arena
// the shards share a window each of — and the shards are the items of one
// pool.Run with a worker each, the calling goroutine among them, so a
// one-shard index starts none.
func (s *ShardedIndex) topDocsBatch(qids [][]int32, k int) scored {
	n := len(s.shards)
	queries := 0
	for _, ids := range qids {
		if ids != nil {
			queries++
		}
	}
	b := scored{shards: n, queries: len(qids), lists: make([][]hit, n*len(qids))}
	// Shard 0 is the largest (documents go round-robin), so no shard returns
	// more than window hits for the batch.
	window := queries * min(k, len(s.shards[0].docs))
	arena := make([]hit, n*window)
	// Scoring cannot be abandoned half way — the merge reads every shard's
	// lists — so the pool runs under a context that is never done.
	_ = pool.Run(context.Background(), n, n, func(si int) {
		b.scoreShard(s.shards[si], si, qids, k, arena[si*window:si*window:(si+1)*window])
	})
	return b
}

// materialize merges the per-shard lists of query q (vocabulary ids ids) into
// its global top-k and renders each hit in the document's owning shard — its
// snippet windows and term-id column live there — anchored at the first body
// word that is one of the query's terms.
func (s *ShardedIndex) materialize(b scored, q int, ids []int32, k int) []Result {
	found := 0
	for si := range s.shards {
		found += len(b.row(si)[q])
	}
	out := make([]Result, min(found, k))
	for i := range out {
		h := b.next(q)
		si, local := h.doc%len(s.shards), h.doc/len(s.shards)
		sh := s.shards[si]
		d := sh.docs[local]
		lo, hi := sh.base[local], sh.base[local+1]
		snippet, start, end := sh.snippetAt(local, sh.terms.anchor(lo, hi, ids))
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
// nothing. Queries are normalized and their terms resolved to vocabulary ids
// once, duplicate queries are scored and materialized once (later occurrences
// copy the first's results), and every shard scores the deduplicated batch in
// a single parallel pass, so the per-query fan-out and setup cost is amortized
// across the batch.
func (s *ShardedIndex) SearchBatch(queries []string, k int) [][]Result {
	out := make([][]Result, len(queries))
	if k <= 0 || s.nDocs == 0 {
		return out
	}
	qids := make([][]int32, len(queries))
	ids := make([]int32, 0, 4*len(queries))     // every query's ids: one allocation for short queries
	first := make(map[string]int, len(queries)) // a query's first occurrence
	for i, q := range queries {
		if _, dup := first[q]; dup {
			continue
		}
		first[q] = i
		if t := textproc.NormalizeTokens(q); len(t) > 0 {
			for _, term := range t {
				ids = append(ids, s.termID(term))
			}
			qids[i] = ids[len(ids)-len(t) : len(ids) : len(ids)]
		}
	}
	b := s.topDocsBatch(qids, k)
	for i, q := range queries {
		if j := first[q]; j < i {
			out[i] = slices.Clone(out[j]) // nil stays nil: what re-running the query returns
		} else if qids[i] != nil {
			out[i] = s.materialize(b, i, qids[i], k)
		}
	}
	return out
}

// termID returns term's vocabulary id, -1 when no document holds it.
func (s *ShardedIndex) termID(term string) int32 {
	if v, ok := s.id[term]; ok {
		return v
	}
	return -1
}
