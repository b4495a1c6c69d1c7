// Package search implements the web search engine substrate that replaces
// the Bing API of §5.2: an inverted index with BM25 ranking over a synthetic
// web corpus, returning for each query the top-k results as (URL, title,
// snippet) triples, with per-query latency accounting so the efficiency
// analysis of §6.4 can be reproduced without real network calls.
//
// The lifecycle has two types. A Builder is written: Add tokenises documents
// into postings and positional maps, Freeze compiles them. A ShardedIndex is
// read: immutable, columnar, safe for concurrent queries, and the only form
// that persists (WriteTo / ReadShardedIndex) — a loaded index never had a
// Builder.
package search

import (
	"math"
	"sync"
)

// Document is one synthetic web page.
type Document struct {
	ID    int
	URL   string
	Title string
	Body  string
	// Lang is an ISO language tag; the engine only returns English
	// results, as the paper's algorithm requests (§5, step 2).
	Lang string
}

// Result is one search hit.
type Result struct {
	URL     string
	Title   string
	Snippet string
	// Terms is the snippet's normalised tokens — what
	// textproc.NormalizeTokens(Snippet) returns — as ids into the serving
	// index's Vocab(), one entry per snippet word in order; a negative entry
	// is a word that normalises to nothing and is to be skipped. It aliases
	// immutable index memory (duplicate queries of a batch share it): read it,
	// never write it. Nil when the hit has no body (the snippet is the title)
	// and on results no ShardedIndex produced.
	Terms []int32
	Score float64
}

// docTable is the per-document state of one shard, appended to by the
// Builder and the TIDX decoder and read by snippets and WriteTo: the stored
// fields and the snippet windows.
type docTable struct {
	docs []Document
	// bodyJoined[doc] is the body's words joined by single spaces — the
	// string every snippet of the doc is a substring of — and wordOff[doc][i]
	// is the byte offset of word i within it, so snippet windows are
	// zero-copy slices instead of per-query joins. When the body already is
	// its own single-space join (the common case), bodyJoined shares its
	// memory.
	bodyJoined []string
	wordOff    [][]int32
	// contentToRaw[doc][p] is the raw word index of content position p, so
	// snippet selection can translate a positional hit back to a window
	// anchor.
	contentToRaw [][]int32
}

// appendDoc adds one document whose body splits into words (joined is their
// single-space join) with content positions c2r.
func (t *docTable) appendDoc(doc Document, joined string, words []string, c2r []int32) {
	off := make([]int32, len(words))
	b := int32(0)
	for i, w := range words {
		off[i] = b
		b += int32(len(w)) + 1
	}
	t.docs = append(t.docs, doc)
	t.bodyJoined = append(t.bodyJoined, joined)
	t.wordOff = append(t.wordOff, off)
	t.contentToRaw = append(t.contentToRaw, c2r)
}

// clip returns a view of the table that later appends cannot grow into.
func (t *docTable) clip() docTable {
	n := len(t.docs)
	return docTable{
		docs:         t.docs[:n:n],
		bodyJoined:   t.bodyJoined[:n:n],
		wordOff:      t.wordOff[:n:n],
		contentToRaw: t.contentToRaw[:n:n],
	}
}

// english reports per doc whether it can surface in results (Lang "en").
func (t *docTable) english() []bool {
	out := make([]bool, len(t.docs))
	for i, d := range t.docs {
		out[i] = d.Lang == "en"
	}
	return out
}

// Index is one frozen shard of a ShardedIndex: the document table, the
// columnar compilation of its postings and positions (see columnar.go), and
// the scoring and snippet kernels the sharded query surface drives. Nothing
// in it changes after construction, so it is safe for any number of
// concurrent readers.
type Index struct {
	docTable
	col *columns
	// terms is the per-raw-word token table snippets hand out as
	// Result.Terms, derived from col and docTable (see termcol.go).
	terms termColumn

	// accPool recycles per-query dense score accumulators across queries
	// and across concurrent readers.
	accPool sync.Pool
}

// BM25 parameters (standard values).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// SnippetWords is the window length of generated snippets; the paper notes
// most snippets are under 20 words.
const SnippetWords = 11

// accumulator is the per-query dense scoring state: a score per document,
// plus the list of docs the pre-final terms touched — the sparse partials
// selection combines with the final term's column. The top-k heap storage
// rides along so batch queries recycle it too.
type accumulator struct {
	scores []float64
	// touched is a window over storage preallocated to one entry per doc (a
	// doc is recorded only on first touch, so it cannot overflow): scoreTerm
	// writes through it unconditionally and bumps the length conditionally,
	// which keeps slice-growth checks and data-dependent stores out of the
	// kernel loop.
	touched []int32
	heap    []hit
}

func (ix *Index) getAccumulator() *accumulator {
	acc, _ := ix.accPool.Get().(*accumulator)
	if acc == nil {
		acc = &accumulator{}
	}
	if len(acc.scores) < len(ix.docs) {
		acc.scores = make([]float64, len(ix.docs))
		// One slot per doc plus a spare: the kernel's unconditional store
		// lands in the spare when every doc is already touched.
		acc.touched = make([]int32, 0, len(ix.docs)+1)
	}
	return acc
}

func (ix *Index) putAccumulator(acc *accumulator) {
	// Scores are already zero: selectTop consumes (and zeroes) every score
	// the kernel wrote, and every scoring path ends in selectTop.
	ix.accPool.Put(acc)
}

// hit is an internal scored document, pre-materialization.
type hit struct {
	doc   int
	score float64
}

// worseHit reports whether a ranks strictly after b in the output order
// (score descending, then doc ascending).
func worseHit(a, b hit) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.doc > b.doc
}

// topK is a bounded min-heap of hits ordered by worseHit: the root is the
// worst hit currently kept, so a full heap admits a candidate only when it
// beats the root. Extracting yields exactly the same hits, in the same
// order, as sorting all candidates by (score desc, doc asc) and truncating.
type topK struct {
	h []hit
	k int
}

func (t *topK) push(c hit) {
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		// Sift up.
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !worseHit(t.h[i], t.h[p]) {
				break
			}
			t.h[i], t.h[p] = t.h[p], t.h[i]
			i = p
		}
		return
	}
	if !worseHit(t.h[0], c) {
		return // candidate no better than the current worst
	}
	t.h[0] = c
	t.siftDown(0, len(t.h))
}

func (t *topK) siftDown(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && worseHit(t.h[l], t.h[m]) {
			m = l
		}
		if r < n && worseHit(t.h[r], t.h[m]) {
			m = r
		}
		if m == i {
			return
		}
		t.h[i], t.h[m] = t.h[m], t.h[i]
		i = m
	}
}

// drain empties the heap and returns the hits best-first.
func (t *topK) drain() []hit {
	for n := len(t.h) - 1; n > 0; n-- {
		t.h[0], t.h[n] = t.h[n], t.h[0]
		t.siftDown(0, n)
	}
	// The heap popped worst-first into the tail, so t.h is now best-first.
	return t.h
}

// topDocsResolved scores a query given as term ids (-1 = absent term)
// through the columnar kernel into a dense accumulator and returns the k best
// English documents (score desc, doc asc). Snippets are not generated here —
// materialize is called only for the hits a caller actually returns. The
// returned slice aliases the accumulator's heap storage and is valid until the
// accumulator's next use.
//
// All but the last present term are accumulated through the branch-free
// kernel; the last term's pass is merged with top-k selection, where each of
// its postings reaches its final sum (earlier contributions landed already,
// the final term's lands last). Two selection bodies share that step — a
// sparse one for the workload's dominant query shape, a dense walk otherwise
// — and both leave the accumulator clean (scores all zero, touched empty)
// and produce the identical result: per surviving doc the additions happen
// in query-term order (bit-identical sums), and the heap order is a strict
// total order (score desc, doc asc), so candidate enumeration order cannot
// affect the output. Every accumulated score is strictly positive (idf > 0
// for any present term, tf >= 1), which is what lets "score == 0" mean "not
// scored or already consumed".
//
// Routing: the sparse body applies whenever the final present term is big (has
// contribDense) — the annotate workload's "<name> <type>" queries, whose type
// suffix is always a long column. Pre-final terms of any size are fine: the
// kernel records every doc they touch, so the sparse completion pass sees all
// of them. A small final term means a short final column, where the dense
// walk is already cheap.
func (ix *Index) topDocsResolved(acc *accumulator, tids []int32, k int) []hit {
	col := ix.col
	last := -1
	for i, tid := range tids {
		if tid >= 0 {
			last = i
		}
	}
	if last < 0 {
		return acc.heap[:0]
	}
	for _, tid := range tids[:last] {
		if tid >= 0 {
			col.scoreTerm(acc, tid)
		}
	}
	var hits []hit
	if col.contribDense[tids[last]] != nil {
		hits = ix.selectTopSparse(acc, tids[last], k)
	} else {
		hits = ix.selectTopDense(acc, tids[last], k)
	}
	acc.heap = hits[:0]
	acc.touched = acc.touched[:0]
	return hits
}

// kthContrib returns the final term's k-th best single-posting contribution,
// a free lower bound on the query's k-th best score: that term's k best
// postings alone already give k docs whose final scores are at least this
// value (additions only increase a score — contributions are positive). Any
// candidate strictly below it can never reach the top-k, so both selection
// bodies reject on one float compare before any heap work. Returns -Inf when
// the column is shorter than k (no bound).
func (c *columns) kthContrib(tid int32, k int) float64 {
	lo, hi := c.engOff[tid], c.engOff[tid+1]
	if k < 1 || int(hi-lo) < k {
		return math.Inf(-1)
	}
	// ordAll ranks the term's postings best-first; its entries are local to
	// the section.
	return c.engContrib[lo+c.ordAll[lo+int32(k-1)]]
}

// selectTopSparse finishes a query whose final term is big, without walking
// that term's long column in doc order. The exact top-k candidates split
// into (a) docs no pre-final term touched, whose whole score is one
// final-term contribution — the precomputed ordAll permutation ranks those —
// and (b) the touched docs, each completed with one O(1) load from the final
// term's contribDense array (zero when the term misses the doc, and adding
// 0.0 is bitwise identity on the positive partial). Cost scales with the
// pre-final posting lists plus k, not with the final term's document
// frequency.
func (ix *Index) selectTopSparse(acc *accumulator, tid int32, k int) []hit {
	col := ix.col
	top := topK{k: k, h: acc.heap[:0]}
	scores := acc.scores
	full := k <= 0
	rootScore := math.Inf(1)
	rootDoc := 0
	lo, hi := col.engOff[tid], col.engOff[tid+1]
	docs := col.engDoc[lo:hi]
	contribs := col.engContrib[lo:hi][:len(docs)]
	ord := col.ordAll[lo:hi]
	pre := col.kthContrib(tid, k)
	if k > 0 {
		// Phase (a): the first k untouched ord entries. They arrive already
		// sorted in the list's total order (contrib desc, doc asc), so the
		// rest of the untouched docs are dominated by them — and written in
		// reverse they are sorted worst-first, hence a valid min-heap.
		n := 0
		for _, e := range ord {
			d := int(docs[e])
			if scores[d] != 0 {
				continue // touched: pass (b) below computes its full score
			}
			top.h = append(top.h, hit{doc: d, score: contribs[e]})
			if n++; n == k {
				break
			}
		}
		for i, j := 0, len(top.h)-1; i < j; i, j = i+1, j-1 {
			top.h[i], top.h[j] = top.h[j], top.h[i]
		}
		if len(top.h) == k {
			full = true
			rootScore, rootDoc = top.h[0].score, top.h[0].doc
		}
	}
	dense := col.contribDense[tid]
	consider := func(d int32, s float64) {
		if full && (s < rootScore || (s == rootScore && int(d) > rootDoc)) {
			return
		}
		top.push(hit{doc: int(d), score: s})
		if len(top.h) == k {
			full = true
			rootScore, rootDoc = top.h[0].score, top.h[0].doc
		}
	}
	// Phase (b): complete every touched doc. Touched docs are unique and
	// nothing has consumed them yet, so the 4-wide block's loads and zeroing
	// stores never alias and the (usually missing) cache lines overlap. The
	// s >= pre guard is the kthContrib prefilter: candidates below the final
	// term's own k-th best posting can never place.
	touched := acc.touched
	j := 0
	for ; j+3 < len(touched); j += 4 {
		d0, d1, d2, d3 := touched[j], touched[j+1], touched[j+2], touched[j+3]
		s0 := scores[d0] + dense[d0]
		s1 := scores[d1] + dense[d1]
		s2 := scores[d2] + dense[d2]
		s3 := scores[d3] + dense[d3]
		scores[d0] = 0
		scores[d1] = 0
		scores[d2] = 0
		scores[d3] = 0
		if s0 >= pre {
			consider(d0, s0)
		}
		if s1 >= pre {
			consider(d1, s1)
		}
		if s2 >= pre {
			consider(d2, s2)
		}
		if s3 >= pre {
			consider(d3, s3)
		}
	}
	for ; j < len(touched); j++ {
		d := touched[j]
		s := scores[d] + dense[d]
		scores[d] = 0
		if s >= pre {
			consider(d, s)
		}
	}
	return top.drain()
}

// selectTopDense walks the final term's whole column once: after the earlier
// terms have been accumulated, a doc in the final term's postings reaches its
// final sum the moment that term's contribution lands, so each posting is
// computed, considered and consumed (zeroed) in one step. A cleanup pass over
// the touched list then consumes the docs the final term didn't cover. The
// kthContrib prefilter and a cached copy of a full heap's root reject
// candidates with inline compares; k <= 0 keeps the heap empty but still
// consumes every score (the +Inf root rejects all candidates).
func (ix *Index) selectTopDense(acc *accumulator, tid int32, k int) []hit {
	col := ix.col
	top := topK{k: k, h: acc.heap[:0]}
	scores := acc.scores
	full := k <= 0
	rootScore := math.Inf(1)
	rootDoc := 0
	lo, hi := col.engOff[tid], col.engOff[tid+1]
	docs := col.engDoc[lo:hi]
	contribs := col.engContrib[lo:hi][:len(docs)]
	pre := col.kthContrib(tid, k)
	for i, d32 := range docs {
		d := int(d32)
		s := scores[d] + contribs[i]
		scores[d] = 0
		if s < pre {
			continue // below the final term's own k-th best posting
		}
		if full && (s < rootScore || (s == rootScore && d > rootDoc)) {
			continue
		}
		top.push(hit{doc: d, score: s})
		if len(top.h) == k {
			full = true
			rootScore, rootDoc = top.h[0].score, top.h[0].doc
		}
	}
	for _, d32 := range acc.touched {
		d := int(d32)
		s := scores[d]
		if s == 0 {
			continue // covered (and consumed) by the final term's walk
		}
		scores[d] = 0
		if s < pre {
			continue
		}
		if full && (s < rootScore || (s == rootScore && d > rootDoc)) {
			continue
		}
		top.push(hit{doc: d, score: s})
		if len(top.h) == k {
			full = true
			rootScore, rootDoc = top.h[0].score, top.h[0].doc
		}
	}
	return top.drain()
}

// snippet extracts a SnippetWords-word window around the first body word
// whose stem matches a query term, or the leading window when no term
// matches (title-only hits). The anchor comes from the positional columns
// (the first content position of any query term, translated back to a raw
// word index); the window itself is a zero-copy slice of the precomputed
// joined body — byte-identical to joining the window's words with spaces. It
// returns the window's raw word range [start, end) alongside.
func (ix *Index) snippet(doc int, qterms []string) (s string, start, end int) {
	first := int32(-1)
	for _, t := range qterms {
		if p := ix.firstPosIn(t, doc); p >= 0 && (first < 0 || p < first) {
			first = p
		}
	}
	return ix.snippetAt(doc, first)
}

// snippetAt renders the snippet window anchored at content position first
// (-1: no query term in the body, use the leading window) and returns its raw
// word range; a document without a body yields its title and the empty range.
func (ix *Index) snippetAt(doc int, first int32) (s string, start, end int) {
	off := ix.wordOff[doc]
	if len(off) == 0 {
		return ix.docs[doc].Title, 0, 0
	}
	at := 0
	if first >= 0 {
		at = int(ix.contentToRaw[doc][first])
	}
	start = at - SnippetWords/3
	if start < 0 {
		start = 0
	}
	end = start + SnippetWords
	if end > len(off) {
		end = len(off)
		if start = end - SnippetWords; start < 0 {
			start = 0
		}
	}
	joined := ix.bodyJoined[doc]
	stop := len(joined)
	if end < len(off) {
		stop = int(off[end]) - 1 // the space before word end
	}
	return joined[off[start]:stop], start, end
}

// firstPosIn returns term's first content position within doc, or -1. Big
// terms resolve in one load from the firstPos array; small terms — whose
// positional lists are short — binary-search the positional columns. Either
// way the answer equals positionsIn(term, doc)[0].
func (ix *Index) firstPosIn(term string, doc int) int32 {
	tid, ok := ix.col.termID[term]
	if !ok {
		return -1
	}
	if fp := ix.col.firstPos[tid]; fp != nil {
		return fp[doc] - 1
	}
	if pos := ix.col.positionsIn(tid, doc); len(pos) > 0 {
		return pos[0]
	}
	return -1
}

// positionsIn returns the content positions of term within doc, or nil.
func (ix *Index) positionsIn(term string, doc int) []int32 {
	tid, ok := ix.col.termID[term]
	if !ok {
		return nil
	}
	return ix.col.positionsIn(tid, doc)
}
