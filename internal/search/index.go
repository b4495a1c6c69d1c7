// Package search implements the web search engine substrate that replaces
// the Bing API of §5.2: an inverted index with BM25 ranking over a synthetic
// web corpus, returning for each query the top-k results as (URL, title,
// snippet) triples, with per-query latency accounting so the efficiency
// analysis of §6.4 can be reproduced without real network calls.
//
// An index is made once, by Build over a sequence of documents: each shard
// tokenises its documents into postings and a per-word term-id column as they
// arrive, and the shards are compiled together at the end. What Build returns,
// a ShardedIndex, is read only: immutable, columnar and safe for concurrent
// queries. It persists its documents (WriteTo), and ReadShardedIndex builds
// over them again.
package search

import (
	"math"
	"slices"
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

// docTable is the per-document state of one shard, appended to by its
// shardBuilder and read by snippets and WriteTo: the stored fields and the
// snippet windows.
type docTable struct {
	docs []Document
	// bodyJoined[doc] is the body's words joined by single spaces — the
	// string every snippet of the doc is a substring of. When the body already
	// is its own single-space join (the common case), it shares its memory.
	bodyJoined []string
	// base[doc]:base[doc+1] are doc's body words in the shard's per-word
	// arenas, this one and the term column's ids: wordOff[base[doc]+i] is the
	// byte offset of word i within bodyJoined[doc], so snippet windows are
	// zero-copy slices instead of per-query joins.
	base    []int
	wordOff []int32
}

// newDocTable returns an empty table.
func newDocTable() docTable { return docTable{base: []int{0}} }

// appendDoc adds one document whose body's words joined by single spaces are
// joined; the words' offsets in it are the caller's to append to wordOff.
func (t *docTable) appendDoc(doc Document, joined string) {
	t.docs = append(t.docs, doc)
	t.bodyJoined = append(t.bodyJoined, joined)
	t.base = append(t.base, len(t.wordOff))
}

// sections returns per doc the posting section its postings go to: 0 when it
// can surface in results (Lang "en"), 1 otherwise.
func (t *docTable) sections() []int {
	out := make([]int, len(t.docs))
	for i, d := range t.docs {
		if d.Lang != "en" {
			out[i] = 1
		}
	}
	return out
}

// Index is one frozen shard of a ShardedIndex: the document table, the
// columnar compilation of its postings (see columnar.go), the term-id column,
// and the scoring and snippet kernels the sharded query surface drives. Nothing
// in it changes after construction, so it is safe for any number of
// concurrent readers.
type Index struct {
	docTable
	col *columns
	// terms is the per-raw-word token table snippets anchor on and hand out
	// as Result.Terms (see termcol.go), indexed by docTable.base.
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
// The served query is "<cell> <city>" (§5.2.2): a long column — restaurant,
// hotel, street — sits among the rare name terms and a medium city ends the
// query, so cost has to follow the short posting lists. deferredTerms picks
// the big terms whose docs cannot place on their own; only the other,
// essential terms enumerate docs (scoreTerm), and a deferred term is one
// dense load per doc touched so far. Every surviving doc still receives its
// terms' contributions in query-term order: a doc a later essential term
// touches first starts from the in-order sum of the earlier deferred terms'
// dense entries, and adding the 0.0 of a term the doc lacks is bitwise
// identity — so sums are bit-identical to the scalar loop's. The heap order is
// a strict total order (score desc, doc asc), so which candidates are
// enumerated, and in what order, cannot affect the output as long as every
// doc that can place is offered. Every accumulated score is strictly positive
// (idf > 0 for any present term, tf >= 1), which is what lets "score == 0"
// mean "not scored or already consumed".
//
// Routing of the final present term, whose pass is fused with selection (each
// body leaves the accumulator clean: scores all zero, touched empty):
//   - deferred: complete every touched doc with one load from its dense
//     column; docs it alone holds are never seen.
//   - essential and big, nothing deferred: the docs no earlier term touched
//     come best-first from ordAll, the touched ones complete as above.
//   - essential, nothing deferred: walk its column in doc order, then offer
//     the touched docs it did not cover.
//   - essential after a deferred term: it accumulates like any earlier
//     essential term (its fresh docs need their deferred start), then the
//     touched docs are offered as they stand.
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
	theta, deferred := col.deferredTerms(tids, k)
	isDeferred := func(i int) bool { return deferred>>uint(i)&1 != 0 }
	fused := last // the slot selection consumes; past the end when none is
	if deferred != 0 && !isDeferred(last) {
		fused = last + 1
	}
	for i, tid := range tids[:fused] {
		switch {
		case tid < 0:
		case isDeferred(i):
			dense := col.contribDense[tid]
			for _, d := range acc.touched {
				acc.scores[d] += dense[d]
			}
		default:
			n := len(acc.touched)
			col.scoreTerm(acc, tid)
			if deferred&(1<<uint(i)-1) != 0 {
				col.startDeferred(acc.scores, acc.touched[n:], tids[:i], deferred)
			}
		}
	}
	sel := selector{top: topK{k: k, h: acc.heap[:0]}, floor: theta, rootScore: math.Inf(-1)}
	if k <= 0 {
		sel.floor = math.Inf(1) // nothing is kept, every score is still consumed
	}
	switch {
	case fused > last:
		sel.complete(acc.scores, acc.touched, nil)
	case deferred != 0:
		sel.complete(acc.scores, acc.touched, col.contribDense[tids[last]])
	case col.contribDense[tids[last]] != nil:
		sel.seed(col, acc.scores, tids[last])
		sel.complete(acc.scores, acc.touched, col.contribDense[tids[last]])
	default:
		sel.walk(col, acc.scores, tids[last])
		sel.complete(acc.scores, acc.touched, nil)
	}
	hits := sel.top.drain()
	acc.heap = hits[:0]
	acc.touched = acc.touched[:0]
	return hits
}

// kthContrib returns term tid's k-th best single-posting contribution, a free
// lower bound on the k-th best score of any query holding the term: its k best
// postings alone already give k docs whose final scores are at least this
// value (additions only increase a score — contributions are positive).
// Returns -Inf when the column is shorter than k (no bound).
func (c *columns) kthContrib(tid int32, k int) float64 {
	lo, hi := c.engOff[tid], c.engOff[tid+1]
	if k < 1 || int(hi-lo) < k {
		return math.Inf(-1)
	}
	// ordAll ranks the term's postings best-first; its entries are local to
	// the section.
	return c.engContrib[lo+c.ordAll[lo+int32(k-1)]]
}

// deferredTerms is a query's scoring plan, a function of the query and the
// frozen columns alone. theta, the largest kthContrib over the present terms,
// is a lower bound on the k-th best final score, so a candidate strictly below
// it can never place: every selection body rejects on that one compare before
// any heap work. deferred has bit i set when slot i of tids is a term whose
// docs need not be enumerated: the big terms (the ones with a contribDense
// column), when the query-order floating-point sum of their best postings is
// strictly below theta. IEEE addition is monotone in each operand, so that sum
// bounds the score of any doc holding only deferred terms — such a doc cannot
// place. Strictly: a tie at the k-th score is decided by doc id, and a doc
// holding only deferred terms could win it. The term theta comes from cannot
// be under the bound (its best posting alone reaches theta), so some term
// always stays essential; theta = -Inf (k <= 0, or no column as long as k)
// defers nothing. All big terms or none: a deferred term costs a dense load per
// doc the essential terms touch, which under a big essential term is no
// cheaper than walking the deferred column, so deferral pays only when the
// terms left to enumerate are short. A query of more than 64 terms defers
// nothing.
func (c *columns) deferredTerms(tids []int32, k int) (theta float64, deferred uint64) {
	theta = math.Inf(-1)
	sum := 0.0
	for i, tid := range tids {
		if tid < 0 {
			continue
		}
		theta = max(theta, c.kthContrib(tid, k))
		if c.contribDense[tid] != nil {
			lo := c.engOff[tid]
			sum += c.engContrib[lo+c.ordAll[lo]] // the term's best posting
			deferred |= 1 << uint(i)
		}
	}
	if len(tids) > 64 || !(sum < theta) {
		deferred = 0
	}
	return theta, deferred
}

// startDeferred gives the docs an essential term touched first — fresh, each
// holding exactly that term's contribution — the start the scalar loop would
// have given them: the in-order sum of the dense entries of the deferred terms
// among earlier, the slots before the essential one. Addition commutes
// bitwise, so start + contribution is the sum in query-term order.
func (c *columns) startDeferred(scores []float64, fresh []int32, earlier []int32, deferred uint64) {
	for _, d := range fresh {
		start := 0.0
		for i, tid := range earlier {
			if deferred>>uint(i)&1 != 0 {
				start += c.contribDense[tid][d]
			}
		}
		scores[d] = start + scores[d]
	}
}

// selector is top-k selection over final scores: a bounded heap behind two
// inline compares. floor rejects what can never place: it starts at the
// query's threshold (see deferredTerms; +Inf when k <= 0, so nothing is kept)
// and follows a full heap's root upward; (rootScore, rootDoc) is a cached copy
// of that root for the tie rule, -Inf while the heap fills. Every body
// consumes (zeroes) each score it reads.
type selector struct {
	top       topK
	floor     float64
	rootScore float64
	rootDoc   int
}

func (s *selector) offer(d int, score float64) {
	if score < s.floor || (score == s.rootScore && d > s.rootDoc) {
		return
	}
	s.keep(d, score)
}

// keep is offer's out-of-line half, so that the rejection inlines into the
// selection loops.
func (s *selector) keep(d int, score float64) {
	s.top.push(hit{doc: d, score: score})
	s.cacheRoot()
}

// cacheRoot copies a full heap's root and raises floor to it.
func (s *selector) cacheRoot() {
	if h := s.top.h; len(h) > 0 && len(h) == s.top.k {
		s.rootScore, s.rootDoc = h[0].score, h[0].doc
		s.floor = max(s.floor, s.rootScore)
	}
}

// seed starts the heap from big final term tid's ordAll permutation: the first
// k entries no earlier term touched. Their whole score is that one
// contribution and they arrive already sorted in the total order (contrib
// desc, doc asc), so the rest of the untouched docs are dominated by them —
// and written in reverse they are sorted worst-first, hence a valid min-heap.
func (s *selector) seed(c *columns, scores []float64, tid int32) {
	lo, hi := c.engOff[tid], c.engOff[tid+1]
	docs := c.engDoc[lo:hi]
	contribs := c.engContrib[lo:hi][:len(docs)]
	h := s.top.h
	for _, e := range c.ordAll[lo:hi] {
		if len(h) >= s.top.k || contribs[e] < s.floor {
			break
		}
		if d := int(docs[e]); scores[d] == 0 { // touched docs: complete computes their full score
			h = append(h, hit{doc: d, score: contribs[e]})
		}
	}
	slices.Reverse(h)
	s.top.h = h
	s.cacheRoot()
}

// walk offers every doc of final term tid's column, in doc order: after the
// earlier terms have been accumulated, a doc reaches its final sum the moment
// this term's contribution lands, so each posting is computed, consumed and
// offered in one step.
func (s *selector) walk(c *columns, scores []float64, tid int32) {
	lo, hi := c.engOff[tid], c.engOff[tid+1]
	docs := c.engDoc[lo:hi]
	contribs := c.engContrib[lo:hi][:len(docs)]
	for i, d := range docs {
		score := scores[d] + contribs[i]
		scores[d] = 0
		s.offer(int(d), score)
	}
}

// complete offers every touched doc not consumed yet, first adding the final
// term's dense column when there is one (zero when the term misses the doc,
// and adding 0.0 is bitwise identity on the positive partial). Touched docs
// are unique, so the 4-wide block's loads and zeroing stores never alias and
// the (usually missing) cache lines overlap.
func (s *selector) complete(scores []float64, touched []int32, dense []float64) {
	if dense == nil {
		for _, d := range touched {
			if score := scores[d]; score != 0 { // zero: walk consumed it
				scores[d] = 0
				s.offer(int(d), score)
			}
		}
		return
	}
	j := 0
	for ; j+3 < len(touched); j += 4 {
		d0, d1, d2, d3 := touched[j], touched[j+1], touched[j+2], touched[j+3]
		s0 := scores[d0] + dense[d0]
		s1 := scores[d1] + dense[d1]
		s2 := scores[d2] + dense[d2]
		s3 := scores[d3] + dense[d3]
		scores[d0], scores[d1], scores[d2], scores[d3] = 0, 0, 0, 0
		s.offer(int(d0), s0)
		s.offer(int(d1), s1)
		s.offer(int(d2), s2)
		s.offer(int(d3), s3)
	}
	for _, d := range touched[j:] {
		score := scores[d] + dense[d]
		scores[d] = 0
		s.offer(int(d), score)
	}
}

// snippetAt renders the SnippetWords-word window anchored at raw word at of
// doc's body — the first word that is a query term, or 0 when none is (a
// title-only hit), see termColumn.anchor — and returns its raw word range; a
// document without a body yields its title and the empty range. The window is
// a zero-copy slice of the precomputed joined body, byte-identical to joining
// the window's words with spaces.
func (ix *Index) snippetAt(doc, at int) (s string, start, end int) {
	off := ix.wordOff[ix.base[doc]:ix.base[doc+1]]
	if len(off) == 0 {
		return ix.docs[doc].Title, 0, 0
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
