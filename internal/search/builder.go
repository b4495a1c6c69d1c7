package search

import (
	"context"
	"iter"
	"maps"
	"runtime"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/pool"
	"repro/internal/textproc"
)

// Build indexes docs over max(1, shards) shards and freezes them into an
// immutable ShardedIndex. Documents are assigned round-robin in sequence
// order: the g-th document is global doc id g and lives in shard g%N at local
// id g/N. Each shard is indexed as its documents arrive: the build is one
// pool.Run whose task 0 runs the sequence and hands each shard its documents
// in batches over a bounded channel, while tasks 1..N each index their own
// shard's channel in order; layout then lays the shards out in one id space
// and finish derives the rest. The producer blocks while a shard's channel is
// full and a shard blocks while its channel is empty, so every task needs a
// worker of its own: a pool of fewer than shards+1 workers would deadlock,
// whatever GOMAXPROCS is.
func Build(shards int, docs iter.Seq[Document]) *ShardedIndex {
	shards = max(shards, 1)
	feeds := make([]chan []Document, shards)
	for i := range feeds {
		feeds[i] = make(chan []Document, feedDepth)
	}
	s := newShardedIndex(shards)
	sbs := make([]*shardBuilder, shards)
	_ = pool.Run(context.Background(), shards+1, shards+1, func(task int) {
		if task == 0 {
			s.nDocs = deal(docs, feeds)
			return
		}
		sb := newShardBuilder()
		for batch := range feeds[task-1] {
			for _, doc := range batch {
				sb.add(doc)
			}
		}
		sbs[task-1] = sb
	}) // Background is never done, so Run cannot fail
	s.layout(sbs)
	return s
}

// layout merges the shards' dictionaries into the index-wide vocabulary, lays
// every shard out in its ids (flatten; see "One id space" in columnar.go), per
// shard on the pool, and finishes the index.
func (s *ShardedIndex) layout(sbs []*shardBuilder) {
	var vocab []string
	for _, sb := range sbs {
		vocab = slices.AppendSeq(vocab, maps.Keys(sb.intern))
	}
	slices.Sort(vocab)
	s.setVocab(slices.Clip(slices.Compact(vocab)))
	docLen := make([][]int, len(sbs))
	tf := make([][]int32, len(sbs))
	_ = pool.Run(context.Background(), min(runtime.GOMAXPROCS(0), len(sbs)), len(sbs), func(si int) {
		sb, ix := sbs[si], s.shards[si]
		sb.clip() // the index keeps the table: no doubling slack
		ix.docTable = sb.docTable
		ix.col, tf[si], ix.terms = sb.flatten(s.id, len(s.vocab))
		docLen[si] = sb.docLen
	}) // Background is never done, so Run cannot fail
	s.finish(docLen, tf)
}

// The producer's hand-off: documents go to a shard feedBatch at a time, so a
// send costs little beside generating 64 pages, and a shard's channel holds up
// to feedDepth batches it has not taken yet: slack for the producer and the
// shards to run at uneven speeds (a page's cost varies with its body) while
// only a few hundred documents are in flight.
const (
	feedBatch = 64
	feedDepth = 4
)

// deal runs docs, sends document g to feeds[g%N] in batches, closes every
// feed and returns the document count.
func deal(docs iter.Seq[Document], feeds []chan []Document) int {
	batches := make([][]Document, len(feeds))
	defer func() {
		for si, feed := range feeds {
			if len(batches[si]) > 0 {
				feed <- batches[si]
			}
			close(feed)
		}
	}()
	g := 0
	for doc := range docs {
		si := g % len(feeds)
		if batches[si] == nil {
			batches[si] = make([]Document, 0, feedBatch)
		}
		batches[si] = append(batches[si], doc)
		if len(batches[si]) == feedBatch {
			feeds[si] <- batches[si]
			batches[si] = nil
		}
		g++
	}
	return g
}

// shardBuilder is one shard under construction, in interned term ids: the
// document table the frozen shard shares, plus the streams flatten lays out.
type shardBuilder struct {
	docTable

	// intern maps a term to its interned id, in first-seen order. forms maps a
	// raw word form to its memo entry, so each distinct form is normalised once
	// per shard; multi lists the forms of more than one token, in first-seen
	// order.
	intern   map[string]int32
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

// reserve returns s with room for n more elements, at least doubling its
// capacity when it has to grow: a shard's streams grow by appends to an unknown
// total, and append's own growth, a quarter at a time past a few hundred
// elements, copies a long stream over and over.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

func newShardBuilder() *shardBuilder {
	return &shardBuilder{docTable: newDocTable(), intern: map[string]int32{}, forms: map[string]form{}}
}

// form is a word form's memo entry: its interned token ids formToks[lo:hi],
// and entry, what a body word of the form stores in the term-id column —
// noToken for no token, the id of its one token, or -(m+2) for the form
// multi[m] of more.
type form struct{ lo, hi, entry int32 }

// add indexes one document. Title terms are indexed alongside body terms
// (with the title counted twice, approximating field weighting). Whitespace
// always separates tokens, so the tokens of a text's words are exactly its
// NormalizeTokens. The body is walked once: per word its form's tokens are
// counted and its column entry recorded — with its byte offset in the joined
// body when it is a marked word (docTable.marks) — and the walk tells whether
// the body already is its own join.
func (sb *shardBuilder) add(doc Document) {
	if doc.Lang == "" {
		doc.Lang = "en"
	}
	doc.ID = len(sb.docs)
	n := 0
	for w := range strings.FieldsSeq(doc.Title) {
		n += sb.count(sb.form(w), 2)
	}
	sc := fieldScanner{s: doc.Body}
	w := sc.next()
	if w != "" {
		sb.ids = reserve(sb.ids, (len(doc.Body)+1)/2) // at most a word per two bytes
	}
	first, off := len(sb.ids), int32(0)
	for ; w != ""; w = sc.next() {
		f := sb.form(w)
		n += sb.count(f, 1)
		if len(sb.ids)%markStride == 0 {
			sb.marks = append(sb.marks, off)
		}
		sb.ids = append(sb.ids, f.entry)
		off += int32(len(w)) + 1
	}
	sb.appendDoc(doc, sc.joined(), len(sb.ids)-first)
	sb.post = reserve(sb.post, len(sb.touched))
	for _, t := range sb.touched {
		sb.post = append(sb.post, [2]int32{t, sb.tf[t]})
		sb.tf[t] = 0
	}
	sb.touched = sb.touched[:0]
	sb.docLen = append(sb.docLen, n)
	sb.postEnd = append(sb.postEnd, len(sb.post))
}

// fieldScanner walks a text's words exactly as strings.Fields splits it — at
// runs of white space: the ASCII blanks, and for a byte of 0x80 or more the
// rune it starts, by unicode.IsSpace (invalid UTF-8 decodes to RuneError,
// which is not a space) — and tracks, on the way, whether the text is its own
// single-space join: no leading or trailing blank, and one ' ' byte between
// words.
type fieldScanner struct {
	s         string
	i         int  // the next byte to scan
	end       int  // where the last word ended; 0 before the first
	irregular bool // a gap so far was not exactly one ' '
}

// Byte classes of fieldScanner: a byte below 0x80 is inside a word or an ASCII
// blank; from 0x80 on, the rune the byte starts decides.
const (
	inWord = iota
	blank
	multiByte
)

var byteClass = func() (class [256]uint8) {
	for c := utf8.RuneSelf; c < len(class); c++ {
		class[c] = multiByte
	}
	for _, c := range "\t\n\v\f\r " {
		class[c] = blank
	}
	return class
}()

// next returns the next word, or "" when there is none left.
func (sc *fieldScanner) next() string {
	s, i := sc.s, sc.i
	for {
		for i < len(s) && byteClass[s[i]] == blank {
			i++
		}
		if i == len(s) || byteClass[s[i]] == inWord {
			break
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	if i == len(s) {
		sc.i = i
		return ""
	}
	start := i
	if start != 0 && (sc.end == 0 || start != sc.end+1 || s[sc.end] != ' ') {
		sc.irregular = true
	}
	for {
		for i < len(s) && byteClass[s[i]] == inWord {
			i++
		}
		if i == len(s) || byteClass[s[i]] == blank {
			break
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	sc.i, sc.end = i, i
	return s[start:i]
}

// joined returns the scanned text's words joined by single spaces: the text
// itself, sharing its memory, when it already is that join (all but 8 of the
// 19 006 seed-42 bodies). Call it once next has returned "".
func (sc *fieldScanner) joined() string {
	if !sc.irregular && sc.end == len(sc.s) {
		return sc.s
	}
	return strings.Join(strings.Fields(sc.s), " ")
}

// form returns word form w's memo entry, normalising w the first time.
func (sb *shardBuilder) form(w string) form {
	f, ok := sb.forms[w]
	if !ok {
		f.lo = int32(len(sb.formToks))
		for _, t := range textproc.NormalizeTokens(w) {
			id, ok := sb.intern[t]
			if !ok {
				id = int32(len(sb.intern))
				sb.intern[t], sb.tf = id, append(sb.tf, 0)
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

// flatten lays the streams out keyed by vocabulary id (id maps each term to
// its id among nVocab) — English postings with their term frequencies (rank's
// input, which nothing keeps), each term's count of other postings, the
// term-id column — everything but what finish derives. A counting pass over
// the postings sizes every term's sections, a second fills them, visiting the
// documents in (length, doc) order: the order bestFirst takes each section in.
func (sb *shardBuilder) flatten(id map[string]int32, nVocab int) (*columns, []int32, termColumn) {
	vid := make([]int32, len(sb.intern)) // interned id -> vocabulary id
	for term, t := range sb.intern {
		vid[t] = id[term]
	}

	// Per doc its section, 0 (English) or 1; per vocabulary id its English and
	// other postings, counted, then the English count turned into a cursor.
	lang := make([]int, len(sb.docs))
	for d, doc := range sb.docs {
		if doc.Lang != "en" {
			lang[d] = 1
		}
	}
	cur := make([][2]int32, nVocab)
	nEng := 0
	for d := range sb.postEnd {
		post := sb.postings(d)
		for _, p := range post {
			cur[vid[p[0]]][lang[d]]++
		}
		if lang[d] == 0 {
			nEng += len(post)
		}
	}
	c := newColumns(nVocab, nEng)
	tf := make([]int32, nEng)
	for t, n := range cur {
		c.engOff[t+1], cur[t][0] = c.engOff[t]+n[0], c.engOff[t]
		c.othDF[t] = n[1]
	}
	for _, d := range sb.byLength() {
		if lang[d] == 0 {
			for _, p := range sb.postings(d) {
				k := &cur[vid[p[0]]][0]
				c.engDoc[*k], tf[*k] = int32(d), p[1]
				*k++
			}
		}
	}
	return c, tf, sb.column(vid)
}

// postings returns document d's (term id, tf) postings.
func (sb *shardBuilder) postings(d int) [][2]int32 {
	lo := 0
	if d > 0 {
		lo = sb.postEnd[d-1]
	}
	return sb.post[lo:sb.postEnd[d]]
}

// byLength returns the document ids in (length, doc) order, by a counting
// sort over their lengths.
func (sb *shardBuilder) byLength() []int {
	if len(sb.docLen) == 0 {
		return nil
	}
	at := make([]int32, slices.Max(sb.docLen)+2)
	for _, l := range sb.docLen {
		at[l+1]++
	}
	for l := 1; l < len(at); l++ {
		at[l] += at[l-1]
	}
	order := make([]int, len(sb.docLen))
	for d, l := range sb.docLen {
		order[at[l]] = d
		at[l]++
	}
	return order
}

// column copies the term-id column into vocabulary ids (vid maps an interned
// id to its vocabulary id), with a side list of its own: one entry per
// multi-token form, in order of the form's first body occurrence.
func (sb *shardBuilder) column(vid []int32) termColumn {
	tc := termColumn{ids: make([]int32, len(sb.ids)), multiOff: []int32{0}}
	side := make([]int32, len(sb.multi)) // per multi form, its entry in tc; 0: none yet
	for i, id := range sb.ids {
		switch {
		case id >= 0:
			id = vid[id]
		case id < noToken:
			m := -id - 2
			if side[m] == 0 {
				for _, t := range sb.formToks[sb.multi[m][0]:sb.multi[m][1]] {
					tc.multiIDs = append(tc.multiIDs, vid[t])
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
