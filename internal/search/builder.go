package search

import (
	"sort"
	"strings"

	"repro/internal/textproc"
)

// posting records one document containing a term.
type posting struct {
	doc int // shard-local doc id
	tf  int
}

// posPosting records the body positions of a term within one document. The
// positions count content words only: body words whose normalization yields
// exactly one stem, in body order — the sequence snippet anchoring and the
// term-id column are defined over.
type posPosting struct {
	doc int
	pos []int32
}

// Builder is the write side of the index: Add tokenises documents into
// per-shard postings and positional maps, Freeze compiles what has been added
// into an immutable ShardedIndex. It answers no queries. Not safe for
// concurrent use.
type Builder struct {
	shards []*shardBuilder
	nDocs  int
}

// shardBuilder is one shard under construction: the document table the frozen
// shard will share, plus the term maps only the compiler reads.
type shardBuilder struct {
	docTable
	postings  map[string][]posting
	positions map[string][]posPosting // sorted by doc (Add order)
}

// NewBuilder returns an empty builder over max(1, shards) shards. Documents
// are assigned round-robin: global doc id g lives in shard g%N at local id
// g/N.
func NewBuilder(shards int) *Builder {
	if shards < 1 {
		shards = 1
	}
	b := &Builder{shards: make([]*shardBuilder, shards)}
	for i := range b.shards {
		b.shards[i] = &shardBuilder{
			postings:  map[string][]posting{},
			positions: map[string][]posPosting{},
		}
	}
	return b
}

// Add indexes a document into its round-robin shard. Title terms are indexed
// alongside body terms (with the title counted twice, approximating field
// weighting).
func (b *Builder) Add(doc Document) {
	b.shards[b.nDocs%len(b.shards)].add(doc)
	b.nDocs++
}

func (sb *shardBuilder) add(doc Document) {
	if doc.Lang == "" {
		doc.Lang = "en"
	}
	id := len(sb.docs)
	doc.ID = id
	words := strings.Fields(doc.Body)

	// Normalize the body word by word: the concatenation equals
	// NormalizeTokens(doc.Body) (whitespace always separates tokens), and
	// the per-word view additionally yields the content-word positions that
	// snippet anchoring matches against.
	bodyTerms, stems := textproc.NormalizeWords(words)
	tf := map[string]int{}
	for _, t := range textproc.NormalizeTokens(doc.Title) {
		tf[t] += 2
	}
	for _, t := range bodyTerms {
		tf[t]++
	}
	var c2r []int32
	for i, s := range stems {
		if s != "" {
			sb.addPosition(s, id, int32(len(c2r)))
			c2r = append(c2r, int32(i))
		}
	}
	joined := strings.Join(words, " ")
	if joined == doc.Body {
		joined = doc.Body // drop the duplicate allocation, share the body
	}
	sb.appendDoc(doc, joined, words, c2r)
	for t, n := range tf {
		sb.postings[t] = append(sb.postings[t], posting{doc: id, tf: n})
	}
}

// addPosition appends one content-word position for term in doc. Documents
// are added in increasing id order, so each term's posting list stays sorted
// by doc and the last entry is the only one that can belong to doc.
func (sb *shardBuilder) addPosition(term string, doc int, pos int32) {
	plist := sb.positions[term]
	if n := len(plist); n > 0 && plist[n-1].doc == doc {
		plist[n-1].pos = append(plist[n-1].pos, pos)
		return
	}
	sb.positions[term] = append(plist, posPosting{doc: doc, pos: []int32{pos}})
}

// Freeze compiles everything added so far into an immutable index: the
// corpus-wide ranking state is derived once and every shard gets its columnar
// form. The builder stays usable — Add more and Freeze again for a new,
// independent index; one frozen earlier keeps answering as before.
func (b *Builder) Freeze() *ShardedIndex {
	s := newShardedIndex(len(b.shards), b.nDocs)
	docLen := make([][]int, len(b.shards))
	for si, sb := range b.shards {
		s.shards[si].docTable = sb.docTable.clip()
		s.shards[si].col, docLen[si] = sb.flatten()
	}
	rank(s.shards, docLen, b.nDocs)
	for _, sh := range s.shards {
		sh.col.sortOrd()
		sh.col.scatterDense(len(sh.docs))
	}
	if err := s.deriveTerms(); err != nil {
		panic(err) // a Builder's positions claim every content word exactly once
	}
	return s
}

// flatten lays the term maps out as columns — sorted dictionary, postings
// split by language, positional CSR — everything but the contribution column
// rank fills. docLen[d] is doc d's length in terms, the sum of its tf mass.
func (sb *shardBuilder) flatten() (c *columns, docLen []int) {
	terms := make([]string, 0, len(sb.postings))
	for t := range sb.postings {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	english := sb.english()
	nEng, nOth, nLists, nPos := 0, 0, 0, 0
	for _, plist := range sb.postings {
		for _, p := range plist {
			if english[p.doc] {
				nEng++
			} else {
				nOth++
			}
		}
	}
	for _, plist := range sb.positions {
		nLists += len(plist)
		for _, pp := range plist {
			nPos += len(pp.pos)
		}
	}
	c = newColumns(terms, nEng, nOth, nLists, nPos)
	docLen = make([]int, len(sb.docs))
	e, o, l, p := 0, 0, 0, 0
	for tid, term := range terms {
		for _, pt := range sb.postings[term] {
			docLen[pt.doc] += pt.tf
			if english[pt.doc] {
				c.engDoc[e], c.engTF[e] = int32(pt.doc), int32(pt.tf)
				e++
			} else {
				c.othDoc[o], c.othTF[o] = int32(pt.doc), int32(pt.tf)
				o++
			}
		}
		for _, pp := range sb.positions[term] {
			c.posDoc[l] = int32(pp.doc)
			p += copy(c.posArena[p:], pp.pos)
			l++
			c.posStart[l] = int32(p)
		}
		c.engOff[tid+1], c.othOff[tid+1], c.posOff[tid+1] = int32(e), int32(o), int32(l)
	}
	return c, docLen
}
