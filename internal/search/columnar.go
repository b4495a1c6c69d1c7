package search

import (
	"context"
	"math"
	"runtime"
	"slices"

	"repro/internal/pool"
)

// Columnar scoring kernel. A frozen shard holds its postings in a flat
// columnar form — a term-id dictionary, CSR posting columns and a precomputed
// per-posting partial-score column — so the BM25 hot loop the batched
// annotate path bottoms out in is a block-at-a-time walk over contiguous
// arrays instead of a map lookup plus per-posting floating-point pipeline. One
// producer lays the columns out, a shard builder's flatten, and finish
// completes them; a loaded index is a Build too. Snippets do not read these
// columns: they anchor on the term-id column (termcol.go).
//
// Bit-identity. The scalar loop this kernel replaced computed, per posting,
//
//	acc.scores[p.doc] += idf * tf * (bm25K1 + 1) / (tf + normK[p.doc])
//
// Every operand of that expression is frozen state: idf and normK are derived
// from the whole corpus, tf is counted in the posting. rank therefore evaluates
// the exact expression — same operand order, same operations — once per
// posting and stores the result in the contribution column, and tf is dropped;
// the query-time kernel only replays the additions. Because (a) the
// stored contribution is the identical float64 the scalar loop would have
// produced, and (b) a term has at most one posting per doc and terms are
// scored in query-term order, every doc's sum receives its terms'
// contributions in query-term order whatever order a section lists its docs
// in; and the top-k heap order is total, so the order in which candidates are
// offered cannot change the output. Final scores are therefore bit-identical,
// not merely close.
// The reference differential suite, FuzzShardedSearchEquivalence and the
// cmd/experiments goldens all enforce this.
//
// Language pre-filter. Only English documents can ever surface in results
// (the paper's algorithm requests English pages), and the scalar path
// filtered them at heap-push time after paying to score them. The compiled
// form keeps each term's English postings (doc + contribution — what the
// kernel scores) and only a count of its non-English ones, which are never
// scored: rank's document frequency is all that reads them.
// Dropping non-English docs from the accumulator is invisible in the output:
// the top-k heap order is a strict total order (score desc, doc asc), so the
// returned hits are a function of the scored candidate set, which loses only
// documents the old path filtered anyway.
type columns struct {
	// termID maps a term to its column id; ids are assigned in sorted term
	// order so compilation is deterministic for a given corpus.
	termID map[string]int32
	// terms is the inverse mapping (column id -> term).
	terms []string

	// English CSR sections, the scoring kernel's only inputs: term id t's
	// postings live at engDoc/engContrib[engOff[t]:engOff[t+1]], best-first —
	// in (contribution desc, doc asc) order, the top-k total order restricted
	// to docs whose whole score is that one term. engContrib[i] is the
	// posting's full precomputed BM25 contribution. Threshold-algorithm
	// selection reads a section's prefix (kthContrib, deferredTerms, seed),
	// touching only the postings that can still reach the top-k; scoring reads
	// all of it, in any order (see the bit-identity note).
	engOff     []int32
	engDoc     []int32
	engContrib []float64

	// othDF[t] is term id t's count of non-English postings, which are never
	// scored: idf counts documents of every language.
	othDF []int32

	// contribDense[t], non-nil for big terms (english df >= bigTermDF), is
	// term t's contribution column scattered into a dense per-doc array (0
	// for docs the term does not contain), so exact rescoring costs one load
	// instead of a binary search over the term's postings. Indexed by term
	// id, not a map: the scoring path tests it per query term.
	contribDense [][]float64
}

// newColumns allocates the columns at their exact sizes for a sorted
// dictionary; the producer fills sections and offsets.
func newColumns(terms []string, nEng int) *columns {
	c := &columns{
		termID:     make(map[string]int32, len(terms)),
		terms:      terms,
		engOff:     make([]int32, len(terms)+1),
		engDoc:     make([]int32, nEng),
		engContrib: make([]float64, nEng),
		othDF:      make([]int32, len(terms)),
	}
	for id, term := range terms {
		c.termID[term] = int32(id)
	}
	return c
}

// bigTermDF is the english document frequency at or above which a term is big:
// it gets the dense contribution sidecar, and a query may defer it
// (deferredTerms). Below it, walking the column is cheap enough that the extra
// memory buys nothing.
const bigTermDF = 1024

// rank derives the corpus-wide ranking constants — per-term idf over global
// document frequencies, average document length, per-doc BM25 length
// normalizers — and fills every shard's contribution column from them, so each
// shard scores with exactly the constants a single shard holding the whole
// corpus would use. Contributions are computed here, and only here.
// docLen[shard][doc] is the doc's length in terms, tf[shard][i] the term
// frequency of English posting i.
func rank(shards []*Index, docLen [][]int, tf [][]int32, nDocs int) {
	df := make(map[string]int)
	totalLen := 0
	for si, sh := range shards {
		c := sh.col
		for tid, t := range c.terms {
			df[t] += int(c.engOff[tid+1]-c.engOff[tid]) + int(c.othDF[tid])
		}
		for _, dl := range docLen[si] {
			totalLen += dl
		}
	}
	n := float64(nDocs)
	avgLen := 0.0
	if n > 0 {
		avgLen = float64(totalLen) / n
	}
	for si, sh := range shards {
		c := sh.col
		normK := make([]float64, len(docLen[si]))
		for d, dl := range docLen[si] {
			normK[d] = bm25K1 * (1 - bm25B + bm25B*float64(dl)/avgLen)
		}
		for tid, t := range c.terms {
			dff := float64(df[t])
			idf := math.Log((n-dff+0.5)/(dff+0.5) + 1)
			for i := c.engOff[tid]; i < c.engOff[tid+1]; i++ {
				tf := float64(tf[si][i])
				// The exact expression of the former scalar loop; see the
				// bit-identity note above before changing its shape.
				c.engContrib[i] = idf * tf * (bm25K1 + 1) / (tf + normK[c.engDoc[i]])
			}
		}
	}
}

// finish derives what flatten does not lay out: rank, the index-wide
// vocabulary, then per shard on the pool the best-first sections (bestFirst),
// the dense sidecars and the term-id column in vocabulary ids. docLen is the
// input of rank, tf of rank and of bestFirst (see rank).
func (s *ShardedIndex) finish(docLen [][]int, tf [][]int32) {
	rank(s.shards, docLen, tf, s.nDocs)
	for _, sh := range s.shards {
		s.vocab = append(s.vocab, sh.col.terms...)
	}
	slices.Sort(s.vocab)
	s.vocab = slices.Clip(slices.Compact(s.vocab))
	_ = pool.Run(context.Background(), min(runtime.GOMAXPROCS(0), len(s.shards)), len(s.shards), func(si int) {
		sh := s.shards[si]
		sh.col.bestFirst(tf[si])
		sh.col.scatterDense(len(sh.docs))
		sh.terms.toVocab(sh.col.terms, s.vocab)
	}) // Background is never done, so Run cannot fail
}

// bestFirst puts every English section in (contribution desc, doc asc) order
// without a comparison sort. It relies on flatten's layout: each section in
// the (length, doc) order of its documents, tf[i] English posting i's. For one
// term and one tf, rank's numerator idf·tf·(k1+1) is a constant, and its
// denominator tf+normK[d] does not decrease as document d gets longer (normK
// is monotone in the length, and IEEE + × / are monotone in each operand): the
// term's postings of one tf, taken in (length, doc) order, come in
// non-increasing contribution order already, and only a run of equal
// contributions that spans lengths can be out of doc order. So per term the
// postings are partitioned stably by tf, each group's runs of equal
// contribution are put in doc order, and the groups are merged by
// (contribution desc, doc asc) back into the section.
func (c *columns) bestFirst(tf []int32) {
	if len(tf) == 0 {
		return
	}
	m := tfMerger{count: make([]int32, slices.Max(tf)+1)}
	for t := range c.terms {
		lo, hi := c.engOff[t], c.engOff[t+1]
		if hi-lo > 1 {
			m.order(c.engDoc[lo:hi], c.engContrib[lo:hi], tf[lo:hi])
		}
	}
}

// tfMerger is bestFirst's per-term step, with scratch that serves every term
// of a shard.
type tfMerger struct {
	count []int32 // per tf value: its postings, then its group's fill cursor
	tfs   []int32 // the term's distinct tf values, in order of first posting
	// The term's postings partitioned by tf; per tf group its next posting in
	// them, its end, and that posting's contribution and doc (-Inf once the
	// group is spent).
	docs      []int32
	contribs  []float64
	next, end []int32
	headC     []float64
	headD     []int32
}

// order rewrites one term's section, docs and contribs with their tfs in
// (length, doc) order, in place into (contribution desc, doc asc) order.
func (m *tfMerger) order(docs []int32, contribs []float64, tfs []int32) {
	m.tfs = m.tfs[:0]
	for _, v := range tfs {
		if m.count[v] == 0 {
			m.tfs = append(m.tfs, v)
		}
		m.count[v]++
	}
	if len(m.tfs) == 1 {
		m.count[m.tfs[0]] = 0
		docOrderTies(docs, contribs)
		return
	}

	m.docs = slices.Grow(m.docs[:0], len(docs))[:len(docs)]
	m.contribs = slices.Grow(m.contribs[:0], len(docs))[:len(docs)]
	m.next, m.end = m.next[:0], m.end[:0]
	n := int32(0)
	for _, v := range m.tfs {
		m.next = append(m.next, n)
		n, m.count[v] = n+m.count[v], n
		m.end = append(m.end, n)
	}
	for i, v := range tfs {
		m.docs[m.count[v]], m.contribs[m.count[v]] = docs[i], contribs[i]
		m.count[v]++
	}
	m.headC, m.headD = m.headC[:0], m.headD[:0]
	for g, v := range m.tfs {
		m.count[v] = 0
		lo, hi := m.next[g], m.end[g]
		docOrderTies(m.docs[lo:hi], m.contribs[lo:hi])
		m.headC, m.headD = append(m.headC, m.contribs[lo]), append(m.headD, m.docs[lo])
	}

	next, end, headC, headD := m.next, m.end[:len(m.next)], m.headC[:len(m.next)], m.headD[:len(m.next)]
	for k := range docs {
		best := 0
		for g := 1; g < len(headC); g++ {
			if headC[g] > headC[best] || headC[g] == headC[best] && headD[g] < headD[best] {
				best = g
			}
		}
		docs[k], contribs[k] = headD[best], headC[best]
		if next[best]++; next[best] < end[best] {
			headC[best], headD[best] = m.contribs[next[best]], m.docs[next[best]]
		} else {
			headC[best] = math.Inf(-1)
		}
	}
}

// docOrderTies puts every run of equal contributions in a tf group, in
// non-increasing contribution order, in doc order. A run's docs of one length
// already are: this costs one compare per posting unless a run spans lengths.
//
// A run spans lengths only when normK's step per extra word, k1·b/avgLen,
// falls below a few ulps of tf + normK. Each of the five rounded operations
// from dl/avgLen to tf + normK[d] errs, carried through to that denominator,
// by at most u·(tf + normK) with u = 2^-53. So for lengths L < L' of one tf
// group the computed denominators differ by more than 4u of their size, which
// the rounded division cannot merge, whenever k1·b/avgLen > 15u·(tf +
// normK(L')): the contributions tie only if avgLen·(tf + 0.3) + 0.9·L' ≥
// 0.9/(15u) ≈ 5.4·10^14 (k1 = 1.2, b = 0.75). With tf ≥ 1 and avgLen no
// larger than the longest document, a tie across lengths needs a document of
// at least 2·10^14 words, some 400 TB of text, where the int32 word offsets
// address bodies of 2 GB; a random sweep of the expression finds the first
// such ties near avgLen·(tf + normK) ≈ 2·10^15. So no built index holds one,
// and TestSectionsMatchSort's hand-laid ties-across-lengths columns are this
// loop's coverage.
func docOrderTies(docs []int32, contribs []float64) {
	for i := 1; i < len(docs); i++ {
		c, d := contribs[i], docs[i]
		if c != contribs[i-1] || d > docs[i-1] {
			continue
		}
		j := i
		for ; j > 0 && contribs[j-1] == c && docs[j-1] > d; j-- {
			docs[j], contribs[j] = docs[j-1], contribs[j-1]
		}
		docs[j], contribs[j] = d, c
	}
}

// scatterDense materializes the big-term dense contribution arrays of an
// nDocs-document shard. Pure scatter from already-built columns, no ordering
// dependency.
func (c *columns) scatterDense(nDocs int) {
	c.contribDense = make([][]float64, len(c.terms))
	for tid := range c.terms {
		lo, hi := c.engOff[tid], c.engOff[tid+1]
		if int(hi-lo) < bigTermDF {
			continue
		}
		docs := c.engDoc[lo:hi]
		contribs := c.engContrib[lo:hi]
		dense := make([]float64, nDocs)
		for i, d := range docs {
			dense[d] = contribs[i]
		}
		c.contribDense[tid] = dense
	}
}

// scoreTerm adds term id tid's precomputed posting contributions into the
// dense accumulator, recording each first-touched doc so selection can
// enumerate and reset the sparse partials. Only a query's essential terms come
// through here (see deferredTerms; the final term's pass is usually fused with
// selection) — for a served "<cell> <city>" query the rare name terms and the
// city, not the long type column among them; a training "<name> <type>" query
// ends in its long column, which selection completes from the dense sidecar.
// The block body is hand-unrolled 4 wide: a term's
// postings are distinct docs, so the four loads never alias the four stores
// and the additions (plus the dependent scores[] bounds checks, the only
// ones the compiler cannot eliminate) overlap instead of serialising.
func (c *columns) scoreTerm(acc *accumulator, tid int32) {
	lo, hi := c.engOff[tid], c.engOff[tid+1]
	docs := c.engDoc[lo:hi]
	if len(docs) == 0 {
		return
	}
	// Reslice to a common length so the contribs indexing below is
	// provably in bounds wherever docs indexing is.
	contribs := c.engContrib[lo:hi][:len(docs)]
	scores := acc.scores
	// First-touch recording writes through the touched window
	// unconditionally and advances n only when the store counted — no
	// append bookkeeping, no conditionally-executed stores (the accumulator
	// preallocates one slot per doc, so the window cannot overflow).
	n := len(acc.touched)
	touched := acc.touched[:cap(acc.touched)]
	i := 0
	for ; i+3 < len(docs); i += 4 {
		d0, d1, d2, d3 := docs[i], docs[i+1], docs[i+2], docs[i+3]
		s0, s1, s2, s3 := scores[d0], scores[d1], scores[d2], scores[d3]
		touched[n] = d0
		if s0 == 0 {
			n++
		}
		touched[n] = d1
		if s1 == 0 {
			n++
		}
		touched[n] = d2
		if s2 == 0 {
			n++
		}
		touched[n] = d3
		if s3 == 0 {
			n++
		}
		scores[d0] = s0 + contribs[i]
		scores[d1] = s1 + contribs[i+1]
		scores[d2] = s2 + contribs[i+2]
		scores[d3] = s3 + contribs[i+3]
	}
	for ; i < len(docs); i++ {
		d := docs[i]
		s := scores[d]
		touched[n] = d
		if s == 0 {
			n++
		}
		scores[d] = s + contribs[i]
	}
	acc.touched = touched[:n]
}

// termResolver memoizes term -> column-id lookups across one query batch, so
// a term shared by many queries in the batch (a table's cells share their
// type words and, augmented per §5.2.2, their few cities) resolves against
// the dictionary once per batch instead of once per query.
type termResolver struct {
	col  *columns
	memo map[string]int32 // -1: term not in the index
}

// newTermResolver sizes the memo for a batch of n queries — about two new
// terms each, the rest shared.
func newTermResolver(col *columns, n int) termResolver {
	return termResolver{col: col, memo: make(map[string]int32, 2*n)}
}

// resolve maps qterms to column ids (absent terms -1), appending into tids'
// storage so one scratch slice serves the whole batch.
func (r *termResolver) resolve(qterms []string, tids []int32) []int32 {
	tids = tids[:0]
	for _, t := range qterms {
		id, ok := r.memo[t]
		if !ok {
			id, ok = r.col.termID[t]
			if !ok {
				id = -1
			}
			r.memo[t] = id
		}
		tids = append(tids, id)
	}
	return tids
}
