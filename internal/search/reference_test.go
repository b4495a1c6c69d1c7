package search

// A slow, obviously-correct reference implementation of the engine's query
// semantics, property-checked against the optimized Index on randomized
// seeded corpora. The reference recomputes everything per query from the raw
// document texts — whole-text normalization, map accumulators, a full sort,
// per-word body re-stemming for snippets — i.e. it is
// the seed implementation this package's query core replaced, kept here as
// the executable specification the fast path must match: identical result
// ordering, identical URL/title/snippet bytes, scores within 1e-9.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/textproc"
)

// refSearch is the reference BM25 top-k: score every document from scratch.
func refSearch(docs []Document, query string, k int) []Result {
	if k <= 0 || len(docs) == 0 {
		return nil
	}
	return newRefCorpus(docs).search(query, k)
}

// refCorpus is the reference's view of a corpus — per-document term
// frequencies and lengths, recomputed from raw text — split from the scoring
// so a test asking many queries of one large corpus tokenises it once.
type refCorpus struct {
	docs   []Document
	tfs    []map[string]int
	docLen []int
	avgLen float64
	df     map[string]int
}

func newRefCorpus(docs []Document) *refCorpus {
	rc := &refCorpus{docs: docs, tfs: make([]map[string]int, len(docs)), docLen: make([]int, len(docs)), df: map[string]int{}}
	totalLen := 0
	for i, d := range docs {
		title := normTokens(d.Title)
		terms := slices.Concat(title, title, normTokens(d.Body))
		tf := map[string]int{}
		for _, t := range terms {
			tf[t]++
		}
		rc.tfs[i] = tf
		rc.docLen[i] = len(terms)
		totalLen += len(terms)
		for t := range tf {
			rc.df[t]++
		}
	}
	rc.avgLen = float64(totalLen) / float64(len(docs))
	return rc
}

// search scores every document of a non-empty corpus for k > 0.
func (rc *refCorpus) search(query string, k int) []Result {
	docs, tfs, docLen, avgLen, df := rc.docs, rc.tfs, rc.docLen, rc.avgLen, rc.df
	qterms := normTokens(query)
	if len(qterms) == 0 {
		return nil
	}
	n := float64(len(docs))

	type hit struct {
		doc   int
		score float64
	}
	var hits []hit
	for i := range docs {
		var score float64
		for _, t := range qterms {
			tf := float64(tfs[i][t])
			if tf == 0 {
				continue
			}
			idf := math.Log((n-float64(df[t])+0.5)/(float64(df[t])+0.5) + 1)
			dl := float64(docLen[i])
			score += idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
		}
		lang := docs[i].Lang
		if score > 0 && (lang == "en" || lang == "") {
			hits = append(hits, hit{i, score})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score {
			return hits[i].score > hits[j].score
		}
		return hits[i].doc < hits[j].doc
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]Result, len(hits))
	for i, h := range hits {
		out[i] = Result{
			URL:     docs[h.doc].URL,
			Title:   docs[h.doc].Title,
			Snippet: refSnippet(docs[h.doc], qterms),
			Score:   h.score,
		}
	}
	return out
}

// tokenMemoMax bounds the token memo: far above the few dozen strings the
// exhaustive small scope normalises, while the large random corpora of other
// tests only make it start over.
const tokenMemoMax = 1 << 12

// tokenMemo is normTokens' memo. Reads are lock-free; the lock orders the
// inserts, which empty the memo first when it holds tokenMemoMax strings, so
// it never holds more.
var tokenMemo struct {
	sync.Mutex
	m sync.Map // string → []string
	n int
}

// normTokens is textproc.NormalizeTokens memoised for the reference side of
// the checks, which the exhaustive small scope runs a few hundred thousand
// times over a few dozen distinct bodies, words, queries and snippets. Every
// caller only reads the slice it gets, which is shared with later callers;
// it is clipped, so an append copies it.
func normTokens(s string) []string {
	if norm, ok := tokenMemo.m.Load(s); ok {
		return norm.([]string)
	}
	norm := slices.Clip(textproc.NormalizeTokens(s))
	tokenMemo.Lock()
	if tokenMemo.n == tokenMemoMax {
		tokenMemo.m.Clear()
		tokenMemo.n = 0
	}
	if _, loaded := tokenMemo.m.LoadOrStore(s, norm); !loaded {
		tokenMemo.n++
	}
	tokenMemo.Unlock()
	return norm
}

// refSnippet is the reference snippet window: re-normalize the body word by
// word and find the first word stemming to a query term.
func refSnippet(d Document, qterms []string) string {
	words := strings.Fields(d.Body)
	if len(words) == 0 {
		return d.Title
	}
	qset := map[string]struct{}{}
	for _, t := range qterms {
		qset[t] = struct{}{}
	}
	at := 0
	for i, w := range words {
		norm := normTokens(w)
		if len(norm) == 1 {
			if _, ok := qset[norm[0]]; ok {
				at = i
				break
			}
		}
	}
	start := at - SnippetWords/3
	if start < 0 {
		start = 0
	}
	end := start + SnippetWords
	if end > len(words) {
		end = len(words)
		if start = end - SnippetWords; start < 0 {
			start = 0
		}
	}
	return strings.Join(words[start:end], " ")
}

// posting records one document containing a term.
type posting struct {
	doc int // shard-local doc id
	tf  int
}

// refIndex is the map-based index builder the shardBuilder replaced, kept as
// the oracle of what Build compiles: per round-robin shard, the document table
// plus a term map filled straight from the documents — term frequencies from
// whole-text normalization — and the body words, which flatten normalises one
// by one into the term-id column, with no interning and no streams.
type refIndex struct {
	shards []*refShard
	nDocs  int
}

type refShard struct {
	docTable
	docLen   []int
	postings map[string][]posting
	words    []string // every body word of the shard, in doc order
}

func newRefIndex(docs []Document, shards int) *refIndex {
	ri := &refIndex{shards: make([]*refShard, shards), nDocs: len(docs)}
	for i := range ri.shards {
		ri.shards[i] = &refShard{docTable: newDocTable(), postings: map[string][]posting{}}
	}
	for g, d := range docs {
		ri.shards[g%shards].add(d)
	}
	return ri
}

func (sb *refShard) add(doc Document) {
	if doc.Lang == "" {
		doc.Lang = "en"
	}
	id := len(sb.docs)
	doc.ID = id
	words := strings.Fields(doc.Body)
	tf := map[string]int{}
	n := 0
	for _, t := range normTokens(doc.Title) {
		tf[t] += 2
		n += 2
	}
	for _, t := range normTokens(doc.Body) {
		tf[t]++
		n++
	}
	joined := strings.Join(words, " ")
	if joined == doc.Body {
		joined = doc.Body
	}
	b := int32(0)
	for _, w := range words {
		sb.wordOff = append(sb.wordOff, b)
		b += int32(len(w)) + 1
	}
	sb.appendDoc(doc, joined)
	sb.words = append(sb.words, words...)
	sb.docLen = append(sb.docLen, n)
	for t, n := range tf {
		sb.postings[t] = append(sb.postings[t], posting{doc: id, tf: n})
	}
}

// freeze compiles the maps as the builder's former flatten did, each section
// in doc order, finishes the index through the shared finish, and then sorts
// every section with sortOrd: its state is what Build over the same documents
// must derive (sameIndex), with the section order bestFirst derives taken from
// a comparison sort.
func (ri *refIndex) freeze() *ShardedIndex {
	s := newShardedIndex(len(ri.shards))
	s.nDocs = ri.nDocs
	docLen := make([][]int, len(ri.shards))
	tf := make([][]int32, len(ri.shards))
	for si, sb := range ri.shards {
		ix := s.shards[si]
		ix.docTable = sb.docTable
		ix.col, tf[si], ix.terms = sb.flatten()
		docLen[si] = sb.docLen
	}
	s.finish(docLen, tf)
	for _, sh := range s.shards {
		sh.col.sortOrd()
	}
	return s
}

// engPosting is an English posting with its contribution.
type engPosting struct {
	doc     int32
	contrib float64
}

// bestFirstCmp is the one-term top-k order: contribution desc, doc asc.
func bestFirstCmp(a, b engPosting) int {
	if c := cmp.Compare(b.contrib, a.contrib); c != 0 {
		return c
	}
	return cmp.Compare(a.doc, b.doc)
}

// sortOrd sorts every English section in place by (contribution desc, doc
// asc) with a comparison sort: the order bestFirst derives without one.
func (c *columns) sortOrd() {
	for tid := range c.terms {
		lo, hi := c.engOff[tid], c.engOff[tid+1]
		sec := make([]engPosting, 0, hi-lo)
		for i := lo; i < hi; i++ {
			sec = append(sec, engPosting{c.engDoc[i], c.engContrib[i]})
		}
		slices.SortFunc(sec, bestFirstCmp)
		for i, p := range sec {
			c.engDoc[int(lo)+i], c.engContrib[int(lo)+i] = p.doc, p.contrib
		}
	}
}

func (sb *refShard) flatten() (*columns, []int32, termColumn) {
	terms := make([]string, 0, len(sb.postings))
	for t := range sb.postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	english := make([]bool, len(sb.docs))
	for d, doc := range sb.docs {
		english[d] = doc.Lang == "en"
	}
	nEng := 0
	for _, plist := range sb.postings {
		for _, p := range plist {
			if english[p.doc] {
				nEng++
			}
		}
	}
	c := newColumns(terms, nEng)
	tf := make([]int32, nEng)
	e := 0
	for tid, term := range terms {
		for _, pt := range sb.postings[term] {
			if english[pt.doc] {
				c.engDoc[e], tf[e] = int32(pt.doc), int32(pt.tf)
				e++
			} else {
				c.othDF[tid]++
			}
		}
		c.engOff[tid+1] = int32(e)
	}

	// The term-id column in column ids: a word's one token, noToken, or an
	// entry of the side list, which holds each multi-token form once, in order
	// of its first occurrence.
	tc := termColumn{ids: make([]int32, 0, len(sb.words)), multiOff: []int32{0}}
	multi := map[string]int32{}
	for _, w := range sb.words {
		norm := normTokens(w)
		switch len(norm) {
		case 0:
			tc.ids = append(tc.ids, noToken)
		case 1:
			tc.ids = append(tc.ids, c.termID[norm[0]])
		default:
			m, ok := multi[w]
			if !ok {
				for _, t := range norm {
					tc.multiIDs = append(tc.multiIDs, c.termID[t])
				}
				m = -int32(len(tc.multiOff)-1) - 2
				tc.multiOff = append(tc.multiOff, int32(len(tc.multiIDs)))
				multi[w] = m
			}
			tc.ids = append(tc.ids, m)
		}
	}
	return c, tf, tc
}

// randomCorpus builds a randomized document set stressing the indexer's
// normalization edge cases: stopwords, numerics, hyphenated words (multiple
// tokens per raw word), apostrophes, duplicated documents (score ties) and
// non-English pages.
func randomCorpus(rng *rand.Rand, nDocs int) []Document {
	vocab := []string{
		"museum", "museums", "restaurant", "gallery", "painting", "paintings",
		"the", "of", "and", "a", "in", // stopwords
		"12", "3.5", "2,000", // numerics
		"rock-n-roll", "jazz-club", "state-of-the-art", // multi-token words
		"martin's", "chez", "martin", "melisse", "l'atelier",
		"grand", "hotel", "suites", "national", "collection",
	}
	word := func() string { return vocab[rng.Intn(len(vocab))] }
	docs := make([]Document, 0, nDocs)
	for i := 0; i < nDocs; i++ {
		nw := 3 + rng.Intn(25)
		words := make([]string, nw)
		for j := range words {
			words[j] = word()
		}
		lang := "en"
		if rng.Intn(8) == 0 {
			lang = "fr"
		}
		body := strings.Join(words, " ")
		if rng.Intn(6) == 0 && i > 0 {
			body = docs[i-1].Body // duplicate body: exact score ties
		}
		docs = append(docs, Document{
			URL:   fmt.Sprintf("u%d", i),
			Title: word() + " " + word(),
			Body:  body,
			Lang:  lang,
		})
	}
	return docs
}

func randomQueries(rng *rand.Rand, n int) []string {
	parts := []string{
		"museum", "restaurant", "chez martin", "grand hotel", "paintings",
		"melisse", "national collection", "jazz-club", "the of", "12",
	}
	qs := make([]string, n)
	for i := range qs {
		p := parts[rng.Intn(len(parts))]
		switch rng.Intn(4) {
		case 0:
			qs[i] = p
		case 1:
			qs[i] = p + " " + parts[rng.Intn(len(parts))]
		case 2:
			qs[i] = `"` + p + `"`
		default:
			qs[i] = `"` + p + `" ` + parts[rng.Intn(len(parts))]
		}
	}
	return qs
}

// checkSameResults asserts got matches want: same length and order, same
// URL/Title/Snippet bytes, scores within 1e-9.
func checkSameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, reference has %d\n got: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.URL != w.URL || g.Title != w.Title || g.Snippet != w.Snippet {
			t.Fatalf("%s: result %d differs:\n got: %+v\nwant: %+v", label, i, g, w)
		}
		if math.Abs(g.Score-w.Score) > 1e-9 {
			t.Fatalf("%s: result %d score %v, reference %v", label, i, g.Score, w.Score)
		}
	}
}

// TestSearchMatchesReference differentially tests the optimized query core
// against the reference implementation over randomized seeded corpora.
func TestSearchMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			docs := randomCorpus(rng, 20+rng.Intn(120))
			ix := buildSharded(docs, 1)
			for _, q := range randomQueries(rng, 60) {
				for _, k := range []int{1, 3, 10, 1000} {
					checkSameResults(t, fmt.Sprintf("Search(%q, %d)", q, k),
						ix.Search(q, k), refSearch(docs, q, k))
				}
			}
		})
	}
}

// TestSearchMatchesReferenceOnLabCorpusShape runs the differential check on
// documents shaped like the generated web corpus (long bodies, repeated
// subjects) rather than uniform noise.
func TestSearchMatchesReferenceOnLabCorpusShape(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var docs []Document
	subjects := []string{"Chez Martin", "Melisse", "Louvre Museum", "Grand Hotel"}
	for i := 0; i < 60; i++ {
		subj := subjects[rng.Intn(len(subjects))]
		filler := randomCorpus(rng, 1)[0].Body
		docs = append(docs, Document{
			URL:   fmt.Sprintf("s%d", i),
			Title: subj,
			Body:  subj + " " + filler + " " + subj,
		})
	}
	ix := buildSharded(docs, 1)
	for _, q := range []string{
		`"Chez Martin" restaurant`, `"Louvre Museum"`, `"Grand Hotel" suites`,
		"melisse restaurant", `"melisse"`, `"chez martin" "grand hotel"`,
	} {
		checkSameResults(t, "Search "+q, ix.Search(q, 10), refSearch(docs, q, 10))
	}
}
