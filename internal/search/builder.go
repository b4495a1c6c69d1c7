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
	// its tokens formToks[lo:hi], so each distinct form is normalised once per
	// shard.
	termID   map[string]int32
	forms    map[string][2]int32
	formToks []int32

	// tf counts the document being indexed per term id; touched lists the ids
	// it counted.
	tf      []int32
	touched []int32

	// Per document in id order: its length in terms, its (term id, tf)
	// postings post[postEnd[d-1]:postEnd[d]], and its content words' term ids
	// in content, len(contentToRaw[d]) of them.
	docLen  []int
	post    [][2]int32
	postEnd []int
	content []int32
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
		b.shards[i] = &shardBuilder{termID: map[string]int32{}, forms: map[string][2]int32{}}
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
	_ = pool.Run(context.Background(), min(runtime.GOMAXPROCS(0), len(b.shards)), len(b.shards), func(si int) {
		sb := b.shards[si]
		for _, doc := range sb.queued {
			sb.add(doc)
		}
		sb.queued = nil
		s.shards[si].docTable = sb.docTable.clip()
		s.shards[si].col = sb.flatten()
		docLen[si] = slices.Clip(sb.docLen)
	}) // Background is never done, so Run cannot fail
	s.finish(docLen)
	return s
}

// add indexes one document. Title terms are indexed alongside body terms
// (with the title counted twice, approximating field weighting). Whitespace
// always separates tokens, so the tokens of a text's words are exactly its
// NormalizeTokens; a body word with one token is a content word, the sequence
// snippet anchoring is defined over.
func (sb *shardBuilder) add(doc Document) {
	if doc.Lang == "" {
		doc.Lang = "en"
	}
	doc.ID = len(sb.docs)
	n := 0
	for w := range strings.FieldsSeq(doc.Title) {
		n += sb.count(sb.tokens(w), 2)
	}
	words := strings.Fields(doc.Body)
	var c2r []int32
	for i, w := range words {
		toks := sb.tokens(w)
		if n += sb.count(toks, 1); len(toks) == 1 {
			sb.content = append(sb.content, toks[0])
			c2r = append(c2r, int32(i))
		}
	}
	sb.appendDoc(doc, joinFields(doc.Body, words), words, c2r)
	for _, t := range sb.touched {
		sb.post = append(sb.post, [2]int32{t, sb.tf[t]})
		sb.tf[t] = 0
	}
	sb.touched = sb.touched[:0]
	sb.docLen = append(sb.docLen, n)
	sb.postEnd = append(sb.postEnd, len(sb.post))
}

// tokens returns the interned ids of word form w's normalised tokens.
func (sb *shardBuilder) tokens(w string) []int32 {
	f, ok := sb.forms[w]
	if !ok {
		f[0] = int32(len(sb.formToks))
		for _, t := range textproc.NormalizeTokens(w) {
			id, ok := sb.termID[t]
			if !ok {
				id = int32(len(sb.termID))
				sb.termID[t], sb.tf = id, append(sb.tf, 0)
			}
			sb.formToks = append(sb.formToks, id)
		}
		f[1] = int32(len(sb.formToks))
		sb.forms[w] = f
	}
	return sb.formToks[f[0]:f[1]]
}

// count adds k to the current document's count of each of toks and returns
// the term mass added.
func (sb *shardBuilder) count(toks []int32, k int32) int {
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
// postings, each term's count of other postings, positional CSR — everything
// but what finish derives. A counting pass over the streams sizes every term's
// sections, a second fills them; documents come in id order, so every section
// is doc-ascending.
func (sb *shardBuilder) flatten() *columns {
	terms := slices.Sorted(maps.Keys(sb.termID))
	colOf := make([]int32, len(terms)) // interned id -> column id
	for t, term := range terms {
		colOf[sb.termID[term]] = int32(t)
	}

	// Per column id: its English (0) and other (1) postings, position lists
	// (2) and positions (3) — counted, then turned into fill cursors.
	lang := sb.sections()
	cur := make([][4]int32, len(terms))
	last := make([]int32, len(terms)) // per column id, 1 + the doc of its last position list
	nEng, nLists := 0, 0
	sb.eachDoc(func(d int, post [][2]int32, content []int32) {
		for _, p := range post {
			cur[colOf[p[0]]][lang[d]]++
		}
		if lang[d] == 0 {
			nEng += len(post)
		}
		for _, id := range content {
			t := colOf[id]
			if last[t] != int32(d)+1 {
				last[t] = int32(d) + 1
				cur[t][2]++
				nLists++
			}
			cur[t][3]++
		}
	})
	c := newColumns(terms, nEng, nLists, len(sb.content))
	pos := int32(0)
	for t, n := range cur {
		c.engOff[t+1], cur[t][0] = c.engOff[t]+n[0], c.engOff[t]
		c.othDF[t] = n[1]
		c.posOff[t+1], cur[t][2] = c.posOff[t]+n[2], c.posOff[t]
		cur[t][3], pos = pos, pos+n[3]
	}
	sb.eachDoc(func(d int, post [][2]int32, content []int32) {
		if lang[d] == 0 {
			for _, p := range post {
				k := &cur[colOf[p[0]]][0]
				c.engDoc[*k], c.engTF[*k] = int32(d), p[1]
				*k++
			}
		}
		for p, id := range content {
			t := colOf[id]
			k := &cur[t]
			if k[2] == c.posOff[t] || c.posDoc[k[2]-1] != int32(d) { // a new list
				c.posDoc[k[2]], c.posStart[k[2]] = int32(d), k[3]
				k[2]++
			}
			c.posArena[k[3]] = int32(p)
			k[3]++
		}
	})
	c.posStart[nLists] = int32(len(sb.content))
	return c
}

// eachDoc calls f with every document's postings and content words' term ids,
// in doc order.
func (sb *shardBuilder) eachDoc(f func(d int, post [][2]int32, content []int32)) {
	p, w := 0, 0
	for d, c2r := range sb.contentToRaw {
		f(d, sb.post[p:sb.postEnd[d]], sb.content[w:w+len(c2r)])
		p, w = sb.postEnd[d], w+len(c2r)
	}
}
