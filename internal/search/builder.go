package search

import (
	"context"
	"maps"
	"runtime"
	"slices"
	"strings"

	"repro/internal/pool"
	"repro/internal/textproc"
)

// Builder is the write side of the index: Add queues a document on its
// round-robin shard, Freeze indexes what the shards have queued — the shards
// in parallel — and compiles everything added so far into an immutable
// ShardedIndex. It answers no queries. Not safe for concurrent use.
type Builder struct {
	shards []*shardBuilder
	nDocs  int
}

// shardBuilder is one shard under construction, in interned term ids: the
// document table the frozen shard shares, plus the streams flatten lays out.
type shardBuilder struct {
	docTable
	queued []Document

	// termID interns terms in first-seen order. forms maps a raw word form to
	// its memo entry, so each distinct form is normalised once per shard;
	// multi lists the forms of more than one token, in first-seen order.
	termID   map[string]int32
	forms    map[string]form
	formToks []int32
	multi    [][2]int32

	// tf counts the document being indexed per term id; touched lists the ids
	// it counted.
	tf      []int32
	touched []int32

	// Per document in id order: its length in terms and its (term id, tf)
	// postings post[postEnd[d-1]:postEnd[d]]. ids is the term-id column in
	// interned ids, indexed by base: per body word, its form's entry.
	docLen  []int
	post    [][2]int32
	postEnd []int
	ids     []int32
}

// form is a word form's memo entry: its interned token ids formToks[lo:hi],
// and entry, what a body word of the form stores in the term-id column —
// noToken for no token, the id of its one token, or -(m+2) for the form
// multi[m] of more.
type form struct{ lo, hi, entry int32 }

// NewBuilder returns an empty builder over max(1, shards) shards. Documents
// are assigned round-robin: global doc id g lives in shard g%N at local id
// g/N.
func NewBuilder(shards int) *Builder {
	if shards < 1 {
		shards = 1
	}
	b := &Builder{shards: make([]*shardBuilder, shards)}
	for i := range b.shards {
		b.shards[i] = &shardBuilder{docTable: newDocTable(), termID: map[string]int32{}, forms: map[string]form{}}
	}
	return b
}

// Add queues a document on its round-robin shard; Freeze indexes it.
func (b *Builder) Add(doc Document) {
	sb := b.shards[b.nDocs%len(b.shards)]
	sb.queued = append(sb.queued, doc)
	b.nDocs++
}

// Freeze indexes the queued documents, each shard on the pool, and compiles
// everything added so far into an immutable index. The builder stays usable —
// Add more and Freeze again for a new, independent index; one frozen earlier
// keeps answering as before.
func (b *Builder) Freeze() *ShardedIndex {
	s := newShardedIndex(len(b.shards), b.nDocs)
	docLen := make([][]int, len(b.shards))
	tf := make([][]int32, len(b.shards))
	_ = pool.Run(context.Background(), min(runtime.GOMAXPROCS(0), len(b.shards)), len(b.shards), func(si int) {
		sb := b.shards[si]
		for _, doc := range sb.queued {
			sb.add(doc)
		}
		sb.queued = nil
		ix := s.shards[si]
		ix.docTable = sb.docTable.clip()
		ix.col, tf[si], ix.terms = sb.flatten()
		docLen[si] = slices.Clip(sb.docLen)
	}) // Background is never done, so Run cannot fail
	s.finish(docLen, tf)
	return s
}

// add indexes one document. Title terms are indexed alongside body terms
// (with the title counted twice, approximating field weighting). Whitespace
// always separates tokens, so the tokens of a text's words are exactly its
// NormalizeTokens; each body word also records its form's column entry.
func (sb *shardBuilder) add(doc Document) {
	if doc.Lang == "" {
		doc.Lang = "en"
	}
	doc.ID = len(sb.docs)
	n := 0
	for w := range strings.FieldsSeq(doc.Title) {
		n += sb.count(sb.form(w), 2)
	}
	words := strings.Fields(doc.Body)
	for _, w := range words {
		f := sb.form(w)
		n += sb.count(f, 1)
		sb.ids = append(sb.ids, f.entry)
	}
	sb.appendDoc(doc, joinFields(doc.Body, words), words)
	for _, t := range sb.touched {
		sb.post = append(sb.post, [2]int32{t, sb.tf[t]})
		sb.tf[t] = 0
	}
	sb.touched = sb.touched[:0]
	sb.docLen = append(sb.docLen, n)
	sb.postEnd = append(sb.postEnd, len(sb.post))
}

// form returns word form w's memo entry, normalising w the first time.
func (sb *shardBuilder) form(w string) form {
	f, ok := sb.forms[w]
	if !ok {
		f.lo = int32(len(sb.formToks))
		for _, t := range textproc.NormalizeTokens(w) {
			id, ok := sb.termID[t]
			if !ok {
				id = int32(len(sb.termID))
				sb.termID[t], sb.tf = id, append(sb.tf, 0)
			}
			sb.formToks = append(sb.formToks, id)
		}
		f.hi = int32(len(sb.formToks))
		switch f.hi - f.lo {
		case 0:
			f.entry = noToken
		case 1:
			f.entry = sb.formToks[f.lo]
		default:
			f.entry = -int32(len(sb.multi)) - 2
			sb.multi = append(sb.multi, [2]int32{f.lo, f.hi})
		}
		sb.forms[w] = f
	}
	return f
}

// count adds k to the current document's count of each of form f's tokens
// and returns the term mass added.
func (sb *shardBuilder) count(f form, k int32) int {
	toks := sb.formToks[f.lo:f.hi]
	for _, t := range toks {
		if sb.tf[t] == 0 {
			sb.touched = append(sb.touched, t)
		}
		sb.tf[t] += k
	}
	return int(k) * len(toks)
}

// joinFields returns strings.Join(words, " ") for words = strings.Fields(body),
// without building it when body already is that join: then body is the words
// plus one byte per gap, and each gap byte is a space.
func joinFields(body string, words []string) string {
	n := len(words) - 1
	for _, w := range words {
		n += len(w)
	}
	if n == len(body) && strings.Count(body, " ") == len(words)-1 {
		return body
	}
	return strings.Join(words, " ")
}

// flatten lays the streams out as columns — sorted dictionary, English
// postings with their term frequencies (rank's input, which nothing keeps),
// each term's count of other postings, the term-id column in column ids —
// everything but what finish derives. A counting pass over the postings sizes
// every term's sections, a second fills them; documents come in id order, so
// every section is doc-ascending.
func (sb *shardBuilder) flatten() (*columns, []int32, termColumn) {
	terms := slices.Sorted(maps.Keys(sb.termID))
	colOf := make([]int32, len(terms)) // interned id -> column id
	for t, term := range terms {
		colOf[sb.termID[term]] = int32(t)
	}

	// Per column id: its English (0) and other (1) postings — counted, then
	// the English count turned into a fill cursor.
	lang := sb.sections()
	cur := make([][2]int32, len(terms))
	nEng := 0
	sb.eachDoc(func(d int, post [][2]int32) {
		for _, p := range post {
			cur[colOf[p[0]]][lang[d]]++
		}
		if lang[d] == 0 {
			nEng += len(post)
		}
	})
	c := newColumns(terms, nEng)
	tf := make([]int32, nEng)
	for t, n := range cur {
		c.engOff[t+1], cur[t][0] = c.engOff[t]+n[0], c.engOff[t]
		c.othDF[t] = n[1]
	}
	sb.eachDoc(func(d int, post [][2]int32) {
		if lang[d] == 0 {
			for _, p := range post {
				k := &cur[colOf[p[0]]][0]
				c.engDoc[*k], tf[*k] = int32(d), p[1]
				*k++
			}
		}
	})
	return c, tf, sb.column(colOf)
}

// eachDoc calls f with every document's postings, in doc order.
func (sb *shardBuilder) eachDoc(f func(d int, post [][2]int32)) {
	p := 0
	for d, end := range sb.postEnd {
		f(d, sb.post[p:end])
		p = end
	}
}

// column copies the term-id column into column ids (colOf maps an interned id
// to its column id), with a side list of its own: one entry per multi-token
// form, in order of the form's first body occurrence.
func (sb *shardBuilder) column(colOf []int32) termColumn {
	tc := termColumn{ids: make([]int32, len(sb.ids)), multiOff: []int32{0}}
	side := make([]int32, len(sb.multi)) // per multi form, its entry in tc; 0: none yet
	for i, id := range sb.ids {
		switch {
		case id >= 0:
			id = colOf[id]
		case id < noToken:
			m := -id - 2
			if side[m] == 0 {
				for _, t := range sb.formToks[sb.multi[m][0]:sb.multi[m][1]] {
					tc.multiIDs = append(tc.multiIDs, colOf[t])
				}
				side[m] = -int32(len(tc.multiOff)-1) - 2
				tc.multiOff = append(tc.multiOff, int32(len(tc.multiIDs)))
			}
			id = side[m]
		}
		tc.ids[i] = id
	}
	return tc
}
