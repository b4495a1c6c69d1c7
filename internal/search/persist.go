package search

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/codec"
)

// Index persistence: a compact binary snapshot so a corpus indexed once can
// be reloaded without re-tokenising (building the synthetic web index is the
// slowest part of system construction). TIDX version 4, the one format
// (little-endian):
//
//	magic "TIDX" | version u32 | shardCount u32
//	docCount u32, then per doc in global Add order:
//	    url, title, body, lang (len-prefixed strings)
//	    flags u8 (bit 0: the body is its own single-space join)
//	    wordCount u32, then ceil(wordCount/8) bitmap bytes — bit i set
//	        means raw word i is a content word (normalizes to one stem)
//	then per shard, in shard order (doc ids shard-local):
//	    termCount u32, then per term in sorted order: term string, n u32,
//	        then a block of n × (doc u32, tf u32)
//	    posTermCount u32, then per term in sorted order: term string,
//	        docCount u32, a block of docCount × (doc u32, posCount u32),
//	        then a block of the term's positions (u32), doc-major
//	    ordLen u32, then a block of ordLen × u32: the freeze-derived ordAll
//	        permutation (per-term English posting indices sorted by
//	        contribution desc, doc asc), concatenated in term order
//
// The stream is a direct image of the frozen index: its sections are already
// term-sorted and doc-sorted, so the reader decodes them straight into the
// columns (count, allocate exactly, fill) and rebuilds only the derived state
// (word offsets, content-position mapping, BM25 contributions, dense
// sidecars) from the stored bodies, bitmaps and ordAll — no tokenisation, no
// stemming, no term maps and no sorting, which is what makes loading a
// snapshot several times faster than rebuilding the corpus. Every count is
// bounded by the bytes that remain and every id is range-checked before
// anything is allocated for it, so a corrupt or adversarial stream yields an
// error, never a panic or an allocation beyond a small multiple of the stream
// length. Any other version is rejected.

const (
	indexMagic   = "TIDX"
	indexVersion = 4

	// minDocRecord is the least a doc record occupies (four string lengths,
	// flags, word count) and minTermRecord the least a term record of either
	// section does (string length, list count, one 8-byte list entry): the
	// codec refuses a doc or term count the bytes that remain cannot hold.
	minDocRecord  = 21
	minTermRecord = 16
)

// appendDoc appends one document record: the stored fields plus the
// derived-state hints (canonical-join flag, content-word bitmap) the reader
// needs to reconstruct snippets without re-tokenising. ld is the doc's
// shard-local id.
func appendDoc(b []byte, ix *Index, ld int) []byte {
	d := ix.docs[ld]
	for _, s := range []string{d.URL, d.Title, d.Body, d.Lang} {
		b = codec.AppendStr(b, s)
	}
	var flags byte
	if ix.bodyJoined[ld] == d.Body {
		flags |= 1
	}
	b = append(b, flags)
	nWords := len(ix.wordOff[ld])
	b = codec.AppendU32(b, uint32(nWords))
	bitmap := len(b)
	b = append(b, make([]byte, (nWords+7)/8)...)
	for _, raw := range ix.contentToRaw[ld] {
		b[bitmap+int(raw/8)] |= 1 << (raw % 8)
	}
	return b
}

// appendSections appends one shard's postings, positions and ordAll sections
// from its columns.
func appendSections(b []byte, c *columns) []byte {
	b = codec.AppendU32(b, uint32(len(c.terms)))
	posTerms := 0
	for tid, term := range c.terms {
		b = codec.AppendStr(b, term)
		n := (c.engOff[tid+1] - c.engOff[tid]) + (c.othOff[tid+1] - c.othOff[tid])
		b = codec.AppendU32(b, uint32(n))
		c.eachPosting(tid, func(doc, tf int32) {
			b = codec.AppendU32(codec.AppendU32(b, uint32(doc)), uint32(tf))
		})
		if c.posOff[tid+1] > c.posOff[tid] {
			posTerms++
		}
	}
	b = codec.AppendU32(b, uint32(posTerms))
	for tid, term := range c.terms {
		lo, hi := c.posOff[tid], c.posOff[tid+1]
		if lo == hi {
			continue
		}
		b = codec.AppendStr(b, term)
		b = codec.AppendU32(b, uint32(hi-lo))
		for l := lo; l < hi; l++ {
			b = codec.AppendU32(codec.AppendU32(b, uint32(c.posDoc[l])), uint32(c.posStart[l+1]-c.posStart[l]))
		}
		for _, pos := range c.posArena[c.posStart[lo]:c.posStart[hi]] {
			b = codec.AppendU32(b, uint32(pos))
		}
	}
	b = codec.AppendU32(b, uint32(len(c.ordAll)))
	for _, e := range c.ordAll {
		b = codec.AppendU32(b, uint32(e))
	}
	return b
}

// AppendTo appends the index's TIDX stream to b: documents once in global
// order, then each shard's sections.
func (s *ShardedIndex) AppendTo(b []byte) []byte {
	n := len(s.shards)
	b = codec.AppendHeader(b, indexMagic, indexVersion)
	b = codec.AppendU32(b, uint32(n))
	b = codec.AppendU32(b, uint32(s.nDocs))
	for g := 0; g < s.nDocs; g++ {
		b = appendDoc(b, s.shards[g%n], g/n)
	}
	for _, sh := range s.shards {
		b = appendSections(b, sh.col)
	}
	return b
}

// WriteTo writes the TIDX stream to w in one Write and returns the byte count
// w accepted.
func (s *ShardedIndex) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(s.AppendTo(nil))
	return int64(n), err
}

// readDoc decodes one document record into shard ix, deriving the
// snippet-serving state (word offsets, joined body, content-to-raw mapping)
// from the stored body and bitmap.
func readDoc(br *codec.Reader, ix *Index) error {
	url, title, body, lang := br.Str(), br.Str(), br.Str(), br.Str()
	flags := br.U8()
	nWords := int(br.U32())
	if nWords > (len(body)+2)/2 {
		return br.Corrupt("doc claims %d words in a %d-byte body", nWords, len(body))
	}
	bitmap := br.Bytes((nWords + 7) / 8)
	if err := br.Err(); err != nil {
		return err
	}
	words := strings.Fields(body)
	joined := joinFields(body, words)
	if flags&1 != 0 && joined != body {
		return br.Corrupt("body is not its own single-space join")
	}
	if len(words) != nWords {
		return br.Corrupt("doc stores %d words, body has %d", nWords, len(words))
	}
	var c2r []int32
	for i := 0; i < nWords; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			c2r = append(c2r, int32(i))
		}
	}
	for i := nWords; i < 8*len(bitmap); i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			return br.Corrupt("content bitmap has stray bits")
		}
	}
	if lang == "" {
		lang = "en"
	}
	ix.appendDoc(Document{ID: len(ix.docs), URL: url, Title: title, Body: body, Lang: lang}, joined, words, c2r)
	return nil
}

// readShard decodes one shard's postings, positions and ordAll sections
// straight into ix.col. Each section is walked twice: the first walk checks
// every count, id and order and sizes the columns, the second fills them
// from the bytes just checked. It returns the shard's document lengths,
// accumulated from the stored term frequencies (a doc's length is exactly
// the sum of its tf mass), for rank.
func readShard(br *codec.Reader, data []byte, ix *Index) (docLen []int, err error) {
	nDocs := len(ix.docs)
	lang := ix.sections()
	le := binary.LittleEndian

	nTerms := br.Count("postings term", minTermRecord)
	terms := make([]string, nTerms)
	counts := make([][2]int32, nTerms) // per term: English, other postings
	nEng, nOth := 0, 0
	postingsAt := br.Offset()
	for t := range terms {
		term, n := br.Str(), int(br.U32())
		if t > 0 && term <= terms[t-1] {
			return nil, br.Corrupt("postings terms out of order at %q", term)
		}
		terms[t] = term
		if n == 0 || n > nDocs {
			return nil, br.Corrupt("term %q has %d postings in a %d-doc shard", term, n, nDocs)
		}
		blk := br.Bytes(8 * n)
		if blk == nil {
			return nil, br.Err()
		}
		prevDoc := -1
		for j := 0; j < n; j++ {
			doc, tf := int(le.Uint32(blk[8*j:])), le.Uint32(blk[8*j+4:])
			// A tf counts words of one in-memory document, so one past int32
			// is a lie, not a big document.
			if doc <= prevDoc || doc >= nDocs || tf == 0 || tf > math.MaxInt32 {
				return nil, br.Corrupt("posting %d of %q: doc %d, tf %d", j, term, doc, tf)
			}
			prevDoc = doc
			counts[t][lang[doc]]++
		}
		nEng += int(counts[t][0])
		nOth += int(counts[t][1])
	}

	nPosTerms := br.Count("positional term", minTermRecord)
	lists := make([]int32, nTerms) // per term: docs with a position list
	nLists, nPos := 0, 0
	positionsAt := br.Offset()
	prevTerm, tid := "", 0
	for t := 0; t < nPosTerms; t++ {
		term, nd := br.Str(), int(br.U32())
		if t > 0 && term <= prevTerm {
			return nil, br.Corrupt("positional terms out of order at %q", term)
		}
		prevTerm = term
		for tid < nTerms && terms[tid] < term {
			tid++
		}
		if tid == nTerms || terms[tid] != term {
			return nil, br.Corrupt("positional term %q has no postings", term)
		}
		if nd == 0 || nd > nDocs {
			return nil, br.Corrupt("term %q has position lists for %d of %d docs", term, nd, nDocs)
		}
		hdr := br.Bytes(8 * nd)
		if hdr == nil {
			return nil, br.Err()
		}
		// The term's positions follow its header, doc-major: one block per
		// list, read in step.
		prevDoc := -1
		for j := 0; j < nd; j++ {
			doc, np := int(le.Uint32(hdr[8*j:])), int(le.Uint32(hdr[8*j+4:]))
			if doc <= prevDoc || doc >= nDocs {
				return nil, br.Corrupt("position list %d of %q: doc %d", j, term, doc)
			}
			limit := len(ix.contentToRaw[doc])
			if np == 0 || np > limit {
				return nil, br.Corrupt("doc %d claims %d positions of %d content words", doc, np, limit)
			}
			blk := br.Bytes(4 * np)
			if blk == nil {
				return nil, br.Err()
			}
			prev := int32(-1)
			for p := 0; p < np; p++ {
				v := int32(le.Uint32(blk[4*p:]))
				if v <= prev || v >= int32(limit) {
					return nil, br.Corrupt("position %d of %q in doc %d: %d", p, term, doc, v)
				}
				prev = v
			}
			prevDoc = doc
			nPos += np
		}
		lists[tid] = int32(nd)
		nLists += nd
	}

	if ordLen := int(br.U32()); ordLen != nEng {
		return nil, br.Corrupt("ordAll has %d entries, English postings %d", ordLen, nEng)
	}
	ordBlk := br.Bytes(4 * nEng)
	if err := br.Err(); err != nil {
		return nil, err
	}

	// Fill. Everything below re-reads bytes the walks above accepted, so it
	// indexes the stream directly.
	c := newColumns(terms, nEng, nOth, nLists, nPos)
	docLen = make([]int, nDocs)
	at := postingsAt
	for t, term := range terms {
		e, o := c.engOff[t], c.othOff[t]
		at += 4 + len(term) + 4
		for n := counts[t][0] + counts[t][1]; n > 0; n-- {
			doc, tf := int32(le.Uint32(data[at:])), int32(le.Uint32(data[at+4:]))
			at += 8
			docLen[doc] += int(tf)
			if lang[doc] == 0 {
				c.engDoc[e], c.engTF[e] = doc, tf
				e++
			} else {
				c.othDoc[o], c.othTF[o] = doc, tf
				o++
			}
		}
		c.engOff[t+1], c.othOff[t+1] = e, o
	}
	at = positionsAt
	l, p := int32(0), int32(0)
	for t, term := range terms {
		if lists[t] > 0 {
			at += 4 + len(term) + 4
			first := p
			for end := l + lists[t]; l < end; l++ {
				c.posDoc[l] = int32(le.Uint32(data[at:]))
				p += int32(le.Uint32(data[at+4:]))
				c.posStart[l+1] = p
				at += 8
			}
			for i := first; i < p; i++ {
				c.posArena[i] = int32(le.Uint32(data[at:]))
				at += 4
			}
		}
		c.posOff[t+1] = l
	}
	c.ordAll = make([]int32, nEng)
	for i := range c.ordAll {
		c.ordAll[i] = int32(le.Uint32(ordBlk[4*i:]))
	}
	ix.col = c
	return docLen, nil
}

// checkOrd validates a stored ordAll permutation against the ranked columns,
// per term section: entries in bounds and in strictly descending
// (contribution, doc asc) order — which, with the length check at decode,
// also proves it is a permutation.
func (c *columns) checkOrd() error {
	for tid, term := range c.terms {
		lo, hi := c.engOff[tid], c.engOff[tid+1]
		sec := c.ordAll[lo:hi]
		docs := c.engDoc[lo:hi]
		contribs := c.engContrib[lo:hi]
		for i, e := range sec {
			if e < 0 || int(e) >= len(docs) {
				return fmt.Errorf("search: corrupt index (ordAll entry %d of term %q out of range)", e, term)
			}
			if i > 0 {
				a := sec[i-1]
				if !(contribs[a] > contribs[e] || (contribs[a] == contribs[e] && docs[a] < docs[e])) {
					return fmt.Errorf("search: corrupt index (ordAll of term %q not in contribution order)", term)
				}
			}
		}
	}
	return nil
}

// ReadShardedIndex loads the TIDX stream data (written by WriteTo, held in
// memory by the caller) with the stored shard count, ready to serve queries.
func ReadShardedIndex(data []byte) (*ShardedIndex, error) {
	br := codec.NewReader("search: corrupt index", data)
	if err := br.Header(indexMagic, indexVersion); err != nil {
		return nil, err
	}
	shards := int(br.U32())
	if shards == 0 || shards > 1<<16 {
		return nil, br.Corrupt("shard count %d", shards)
	}
	docCount := br.Count("doc", minDocRecord)
	if err := br.Err(); err != nil {
		return nil, err
	}
	s := newShardedIndex(shards, docCount)
	for g := 0; g < docCount; g++ {
		if err := readDoc(br, s.shards[g%shards]); err != nil {
			return nil, fmt.Errorf("search: doc %d: %w", g, err)
		}
	}
	docLen := make([][]int, shards)
	for si, sh := range s.shards {
		var err error
		if docLen[si], err = readShard(br, data, sh); err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	if err := br.Done(); err != nil {
		return nil, err
	}

	if err := s.finish(docLen, true); err != nil {
		return nil, err
	}
	return s, nil
}
