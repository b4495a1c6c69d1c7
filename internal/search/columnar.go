package search

import (
	"context"
	"math"
	"runtime"
	"slices"

	"repro/internal/pool"
)

// Columnar scoring kernel. A frozen shard holds its postings in a flat
// columnar form — a term-id dictionary, CSR posting columns and each term's
// precomputed partial scores, held once per distinct value — so the BM25 hot
// loop the batched annotate path bottoms out in is a walk over contiguous
// arrays instead of a map lookup plus per-posting floating-point pipeline.
// One producer lays the columns out, a shard builder's flatten, and finish
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
// posting into a transient contribution column, and tf is dropped. That value
// depends only on the term, the tf and the document's length, so a best-first
// section is a sequence of runs of one value; compress keeps each run's value
// once, the identical float64 each of its postings held, and the query-time
// kernel only replays the additions. Because (a) the value added for a posting
// is the identical float64 the scalar loop would have produced, and (b) a term
// has at most one posting per doc and terms are scored in query-term order,
// every doc's sum receives its terms' contributions in query-term order
// whatever order a section lists its docs in; and the top-k heap order is
// total, so the order in which candidates are offered cannot change the
// output. Final scores are therefore bit-identical, not merely close.
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
//
// One id space. A term id is the term's index in the index-wide vocabulary
// (ShardedIndex.Vocab) in every shard, which flatten lays out in those ids
// once every shard is indexed (layout): a term the shard lacks has an empty
// section, no other postings and no runs. A batch resolves its terms to ids
// once and every shard scores the same ids.
type columns struct {
	// English CSR sections, the scoring kernel's only inputs: term id t's
	// postings live at engDoc[engOff[t]:engOff[t+1]], best-first — in
	// (contribution desc, doc asc) order, the top-k total order restricted to
	// docs whose whole score is that one term. Threshold-algorithm selection
	// reads a section's prefix (kthContrib, deferredTerms, seed), touching only
	// the postings that can still reach the top-k; scoring reads all of it, in
	// any order (see the bit-identity note).
	engOff []int32
	engDoc []int32

	// Runs of one contribution: term id t's section is cut into the runs
	// runOff[t]:runOff[t+1]. Run r ends at engDoc offset runEnd[r] and starts
	// where the run before it ends (engOff[t] for a term's first), and
	// runVal[r] is the full precomputed BM25 contribution of each of its
	// postings. Runs are maximal, so a term's run values strictly decrease:
	// there is one run per distinct contribution.
	runOff []int32
	runVal []float64
	runEnd []int32

	// othDF[t] is term id t's count of non-English postings, which are never
	// scored: idf counts documents of every language.
	othDF []int32

	// dense[t], non-nil for big terms (english df >= bigTermDF) of at most
	// math.MaxUint16 runs, is term t's runs scattered into a per-doc code
	// column, so exact rescoring costs two loads instead of a binary search
	// over the term's postings. Indexed by term id, not a map: the scoring
	// path tests it per query term. A big term with more runs has none and is
	// scored as an essential term (deferredTerms), which every plan does
	// exactly.
	dense []*denseCol
}

// denseCol is a big term's dense sidecar: code[d] is 0 when the term misses
// doc d and c when d's posting is in the term's c-th run (1-based), and
// val[c] is that run's contribution, val[0] = 0. Reading val[code[d]] is
// branch-free, and adding the 0.0 of a doc the term misses is bitwise
// identity on a positive partial.
type denseCol struct {
	code []uint16
	val  []float64
}

// contrib returns doc d's contribution, 0 when the term misses it.
func (dc *denseCol) contrib(d int32) float64 { return dc.val[dc.code[d]] }

// newColumns allocates the sections of nTerms terms at their exact sizes; the
// producer fills sections and offsets, compress the runs.
func newColumns(nTerms, nEng int) *columns {
	return &columns{
		engOff: make([]int32, nTerms+1),
		engDoc: make([]int32, nEng),
		othDF:  make([]int32, nTerms),
	}
}

// nTerms returns the number of term ids the columns are keyed by.
func (c *columns) nTerms() int { return len(c.engOff) - 1 }

// plan appends ids — a query's vocabulary ids, -1 for a term no document
// holds — to tids[:0] with every term the shard has no posting of, in any
// language, as -1 too, and returns it: the ids the shard scores, planned
// exactly as over the shard's own dictionary.
func (c *columns) plan(ids, tids []int32) []int32 {
	tids = tids[:0]
	for _, tid := range ids {
		if tid >= 0 && c.engOff[tid] == c.engOff[tid+1] && c.othDF[tid] == 0 {
			tid = -1
		}
		tids = append(tids, tid)
	}
	return tids
}

// bigTermDF is the english document frequency at or above which a term is big:
// it gets the dense contribution sidecar, and a query may defer it
// (deferredTerms). Below it, walking the column is cheap enough that the extra
// memory buys nothing.
const bigTermDF = 1024

// rank derives the corpus-wide ranking constants — per-term idf over global
// document frequencies, average document length, per-doc BM25 length
// normalizers — and returns every shard's contribution column from them,
// contrib[shard][i] English posting i's, so each shard scores with exactly the
// constants a single shard holding the whole corpus would use. Contributions
// are computed here, and only here. docLen[shard][doc] is the doc's length in
// terms, tf[shard][i] the term frequency of English posting i.
func (s *ShardedIndex) rank(docLen [][]int, tf [][]int32) (contrib [][]float64) {
	df := make([]int, len(s.vocab))
	totalLen := 0
	for si, sh := range s.shards {
		c := sh.col
		for tid := range df {
			df[tid] += int(c.engOff[tid+1]-c.engOff[tid]) + int(c.othDF[tid])
		}
		for _, dl := range docLen[si] {
			totalLen += dl
		}
	}
	n := float64(s.nDocs)
	avgLen := 0.0
	if n > 0 {
		avgLen = float64(totalLen) / n
	}
	contrib = make([][]float64, len(s.shards))
	for si, sh := range s.shards {
		c := sh.col
		contrib[si] = make([]float64, len(c.engDoc))
		normK := make([]float64, len(docLen[si]))
		for d, dl := range docLen[si] {
			normK[d] = bm25K1 * (1 - bm25B + bm25B*float64(dl)/avgLen)
		}
		for tid := range df {
			dff := float64(df[tid])
			idf := math.Log((n-dff+0.5)/(dff+0.5) + 1)
			for i := c.engOff[tid]; i < c.engOff[tid+1]; i++ {
				tf := float64(tf[si][i])
				// The exact expression of the former scalar loop; see the
				// bit-identity note above before changing its shape.
				contrib[si][i] = idf * tf * (bm25K1 + 1) / (tf + normK[c.engDoc[i]])
			}
		}
	}
	return contrib
}

// finish derives what flatten does not lay out: rank, then per shard
// on the pool the best-first sections (bestFirst), their runs (compress, after
// which the shard's contribution column is dropped) and the dense sidecars.
// docLen is the input of rank, tf of rank and of bestFirst (see rank).
func (s *ShardedIndex) finish(docLen [][]int, tf [][]int32) {
	contrib := s.rank(docLen, tf)
	_ = pool.Run(context.Background(), min(runtime.GOMAXPROCS(0), len(s.shards)), len(s.shards), func(si int) {
		sh := s.shards[si]
		sh.col.bestFirst(tf[si], contrib[si])
		sh.col.compress(contrib[si])
		contrib[si] = nil
		sh.col.scatterDense(len(sh.docs))
	}) // Background is never done, so Run cannot fail
}

// bestFirst puts every English section, with contrib[i] English posting i's
// contribution, in (contribution desc, doc asc) order without a comparison
// sort. It relies on flatten's layout: each section in the (length, doc) order
// of its documents, tf[i] English posting i's. For one
// term and one tf, rank's numerator idf·tf·(k1+1) is a constant, and its
// denominator tf+normK[d] does not decrease as document d gets longer (normK
// is monotone in the length, and IEEE + × / are monotone in each operand): the
// term's postings of one tf, taken in (length, doc) order, come in
// non-increasing contribution order already, and only a run of equal
// contributions that spans lengths can be out of doc order. So per term the
// postings are partitioned stably by tf, each group's runs of equal
// contribution are put in doc order, and the groups are merged by
// (contribution desc, doc asc) back into the section.
func (c *columns) bestFirst(tf []int32, contrib []float64) {
	if len(tf) == 0 {
		return
	}
	m := tfMerger{count: make([]int32, slices.Max(tf)+1)}
	for t := range c.nTerms() {
		lo, hi := c.engOff[t], c.engOff[t+1]
		if hi-lo > 1 {
			m.order(c.engDoc[lo:hi], contrib[lo:hi], tf[lo:hi])
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

// compress cuts every section into its runs of one contribution, contrib[i]
// being English posting i's: a run ends where the next posting's contribution
// differs, so a best-first section gets one run per distinct value. A pass
// counts the runs, so the run columns are allocated at their exact sizes.
func (c *columns) compress(contrib []float64) {
	n := 0
	for t := range c.nTerms() {
		lo, hi := c.engOff[t], c.engOff[t+1]
		for i := lo; i < hi; i++ {
			if i == lo || contrib[i] != contrib[i-1] {
				n++
			}
		}
	}
	c.runOff = make([]int32, c.nTerms()+1)
	c.runVal, c.runEnd = make([]float64, n), make([]int32, n)
	r := int32(-1)
	for t := range c.nTerms() {
		lo, hi := c.engOff[t], c.engOff[t+1]
		for i := lo; i < hi; i++ {
			if i == lo || contrib[i] != contrib[i-1] {
				r++
				c.runVal[r] = contrib[i]
			}
			c.runEnd[r] = i + 1
		}
		c.runOff[t+1] = r + 1
	}
}

// scatterDense materializes the big-term dense sidecars of an nDocs-document
// shard. Pure scatter from already-built runs, no ordering dependency.
func (c *columns) scatterDense(nDocs int) {
	c.dense = make([]*denseCol, c.nTerms())
	for tid := range c.dense {
		if c.engOff[tid+1]-c.engOff[tid] >= bigTermDF {
			c.dense[tid] = c.denseCodes(int32(tid), nDocs)
		}
	}
}

// denseCodes scatters term tid's runs into a code per doc of nDocs; nil when
// the term has more runs than a uint16 code can name.
func (c *columns) denseCodes(tid int32, nDocs int) *denseCol {
	ro, rhi := c.runOff[tid], c.runOff[tid+1]
	if rhi-ro > math.MaxUint16 {
		return nil
	}
	dc := &denseCol{code: make([]uint16, nDocs), val: append([]float64{0}, c.runVal[ro:rhi]...)}
	start := c.engOff[tid]
	for r := ro; r < rhi; r++ {
		code := uint16(r - ro + 1)
		for _, d := range c.engDoc[start:c.runEnd[r]] {
			dc.code[d] = code
		}
		start = c.runEnd[r]
	}
	return dc
}

// scoreTerm adds term id tid's precomputed posting contributions into the
// dense accumulator, each posting its run's value, recording each
// first-touched doc so selection can enumerate and reset the sparse partials.
// Only a query's essential terms come through here (see deferredTerms; the
// final term's pass is usually fused with selection) — for a served "<cell>
// <city>" query the rare name terms and the city, not the long type column
// among them; a training "<name> <type>" query ends in its long column, which
// selection completes from the dense sidecar. The section is walked in order
// with a run cursor, whose one branch, at a run's end, is the only per-run
// cost: a medium term of a seed-42 shard averages three to four postings per
// run, where a loop per run (unrolled or not) mispredicts its exit about once
// a run and measured slower.
func (c *columns) scoreTerm(acc *accumulator, tid int32) {
	lo, hi := c.engOff[tid], c.engOff[tid+1]
	if lo == hi {
		return
	}
	docs := c.engDoc[lo:hi]
	ro, rhi := c.runOff[tid], c.runOff[tid+1]
	runVal, runEnd := c.runVal[ro:rhi], c.runEnd[ro:rhi]
	runEnd = runEnd[:len(runVal)]
	scores := acc.scores
	// First-touch recording writes through the touched window
	// unconditionally and advances n only when the store counted — no
	// append bookkeeping, no conditionally-executed stores (the accumulator
	// preallocates one slot per doc, so the window cannot overflow).
	n := len(acc.touched)
	touched := acc.touched[:cap(acc.touched)]
	r, end, v := 0, runEnd[0]-lo, runVal[0]
	for i, d := range docs {
		if int32(i) == end { // posting i starts the next run
			r++
			end, v = runEnd[r]-lo, runVal[r]
		}
		s := scores[d]
		touched[n] = d
		if s == 0 {
			n++
		}
		scores[d] = s + v
	}
	acc.touched = touched[:n]
}
