package search

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
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

	// maxStr caps any length-prefixed string in the stream.
	maxStr = 1 << 26
	// minTermRecord is the least a term record of either section occupies
	// (string length, list count, one 8-byte list entry), bounding a claimed
	// term count by the bytes that remain.
	minTermRecord = 16
)

// persistWriter wraps the encoding helpers of WriteTo.
type persistWriter struct {
	bw *bufio.Writer
	n  int64
}

func (pw *persistWriter) Write(p []byte) (int, error) {
	n, err := pw.bw.Write(p)
	pw.n += int64(n)
	return n, err
}

func (pw *persistWriter) u32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := pw.Write(b[:])
	return err
}

func (pw *persistWriter) u8(v byte) error {
	_, err := pw.Write([]byte{v})
	return err
}

func (pw *persistWriter) str(s string) error {
	if err := pw.u32(uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(pw, s)
	return err
}

// header writes magic, version and the shard count.
func (pw *persistWriter) header(shards int) error {
	if _, err := pw.Write([]byte(indexMagic)); err != nil {
		return err
	}
	if err := pw.u32(indexVersion); err != nil {
		return err
	}
	return pw.u32(uint32(shards))
}

// doc writes one document record: the stored fields plus the derived-state
// hints (canonical-join flag, content-word bitmap) the fast reader needs to
// reconstruct snippets without re-tokenising. ld is the doc's shard-local id.
func (pw *persistWriter) doc(ix *Index, ld int) error {
	d := ix.docs[ld]
	for _, s := range []string{d.URL, d.Title, d.Body, d.Lang} {
		if err := pw.str(s); err != nil {
			return err
		}
	}
	var flags byte
	if ix.bodyJoined[ld] == d.Body {
		flags |= 1
	}
	if err := pw.u8(flags); err != nil {
		return err
	}
	nWords := len(ix.wordOff[ld])
	if err := pw.u32(uint32(nWords)); err != nil {
		return err
	}
	bitmap := make([]byte, (nWords+7)/8)
	for _, raw := range ix.contentToRaw[ld] {
		bitmap[raw/8] |= 1 << (raw % 8)
	}
	_, err := pw.Write(bitmap)
	return err
}

// sections writes one shard's postings, positions and ordAll sections from
// its columns.
func (pw *persistWriter) sections(c *columns) error {
	if err := pw.u32(uint32(len(c.terms))); err != nil {
		return err
	}
	pair := func(doc, n int32) error { // (doc, tf) or (doc, position count)
		if err := pw.u32(uint32(doc)); err != nil {
			return err
		}
		return pw.u32(uint32(n))
	}
	posTerms := 0
	for tid, term := range c.terms {
		if err := pw.str(term); err != nil {
			return err
		}
		n := (c.engOff[tid+1] - c.engOff[tid]) + (c.othOff[tid+1] - c.othOff[tid])
		if err := pw.u32(uint32(n)); err != nil {
			return err
		}
		if err := c.eachPosting(tid, pair); err != nil {
			return err
		}
		if c.posOff[tid+1] > c.posOff[tid] {
			posTerms++
		}
	}
	if err := pw.u32(uint32(posTerms)); err != nil {
		return err
	}
	for tid, term := range c.terms {
		lo, hi := c.posOff[tid], c.posOff[tid+1]
		if lo == hi {
			continue
		}
		if err := pw.str(term); err != nil {
			return err
		}
		if err := pw.u32(uint32(hi - lo)); err != nil {
			return err
		}
		for l := lo; l < hi; l++ {
			if err := pair(c.posDoc[l], c.posStart[l+1]-c.posStart[l]); err != nil {
				return err
			}
		}
		for _, pos := range c.posArena[c.posStart[lo]:c.posStart[hi]] {
			if err := pw.u32(uint32(pos)); err != nil {
				return err
			}
		}
	}
	if err := pw.u32(uint32(len(c.ordAll))); err != nil {
		return err
	}
	for _, e := range c.ordAll {
		if err := pw.u32(uint32(e)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTo serialises the index: documents once in global order, then
// each shard's sections. It returns the byte count written.
func (s *ShardedIndex) WriteTo(w io.Writer) (int64, error) {
	pw := &persistWriter{bw: bufio.NewWriter(w)}
	n := len(s.shards)
	err := func() error {
		if err := pw.header(n); err != nil {
			return err
		}
		if err := pw.u32(uint32(s.nDocs)); err != nil {
			return err
		}
		for g := 0; g < s.nDocs; g++ {
			if err := pw.doc(s.shards[g%n], g/n); err != nil {
				return err
			}
		}
		for _, sh := range s.shards {
			if err := pw.sections(sh.col); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		return pw.n, err
	}
	return pw.n, pw.bw.Flush()
}

// byteReader decodes the in-memory stream with explicit bounds checks: every
// helper returns an error instead of slicing past the data, so corrupt
// counts surface as format errors rather than panics.
type byteReader struct {
	data []byte
	off  int
}

func (br *byteReader) remaining() int { return len(br.data) - br.off }

func (br *byteReader) block(n int) ([]byte, error) {
	if n < 0 || n > br.remaining() {
		return nil, fmt.Errorf("search: corrupt index (truncated at byte %d)", br.off)
	}
	b := br.data[br.off : br.off+n]
	br.off += n
	return b, nil
}

func (br *byteReader) u32() (uint32, error) {
	b, err := br.block(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (br *byteReader) u8() (byte, error) {
	b, err := br.block(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (br *byteReader) str() (string, error) {
	n, err := br.u32()
	if err != nil {
		return "", err
	}
	if n > maxStr {
		return "", fmt.Errorf("search: corrupt index (string length %d)", n)
	}
	b, err := br.block(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// splitCanonical splits a body that is its own single-space join into its
// words (substrings of body, like strings.Fields). ok is false when the body
// violates the canonical property (leading/trailing/double spaces).
func splitCanonical(body string) (words []string, ok bool) {
	if body == "" {
		return nil, true
	}
	words = make([]string, 0, strings.Count(body, " ")+1)
	start := 0
	for i := 0; i < len(body); i++ {
		if body[i] != ' ' {
			continue
		}
		if i == start {
			return nil, false
		}
		words = append(words, body[start:i])
		start = i + 1
	}
	if start == len(body) {
		return nil, false
	}
	return append(words, body[start:]), true
}

// readDoc decodes one document record into shard ix, deriving the
// snippet-serving state (word offsets, joined body, content-to-raw mapping)
// from the stored body and bitmap.
func (br *byteReader) readDoc(ix *Index) error {
	var fields [4]string
	for f := range fields {
		s, err := br.str()
		if err != nil {
			return err
		}
		fields[f] = s
	}
	flags, err := br.u8()
	if err != nil {
		return err
	}
	nWords, err := br.u32()
	if err != nil {
		return err
	}
	body := fields[2]
	if int64(nWords) > (int64(len(body))+1+1)/2 {
		return fmt.Errorf("search: corrupt index (doc claims %d words in a %d-byte body)", nWords, len(body))
	}
	bitmap, err := br.block((int(nWords) + 7) / 8)
	if err != nil {
		return err
	}
	var words []string
	joined := body
	if flags&1 != 0 {
		var ok bool
		if words, ok = splitCanonical(body); !ok {
			return fmt.Errorf("search: corrupt index (body is not its own single-space join)")
		}
	} else {
		words = strings.Fields(body)
		joined = strings.Join(words, " ")
	}
	if len(words) != int(nWords) {
		return fmt.Errorf("search: corrupt index (doc stores %d words, body has %d)", nWords, len(words))
	}
	var c2r []int32
	for i := 0; i < int(nWords); i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			c2r = append(c2r, int32(i))
		}
	}
	for i := int(nWords); i < 8*len(bitmap); i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			return fmt.Errorf("search: corrupt index (content bitmap has stray bits)")
		}
	}
	lang := fields[3]
	if lang == "" {
		lang = "en"
	}
	ix.appendDoc(Document{
		ID: len(ix.docs), URL: fields[0], Title: fields[1], Body: body, Lang: lang,
	}, joined, words, c2r)
	return nil
}

// termCount reads a section's term count, bounded by the bytes that remain.
func (br *byteReader) termCount(section string) (int, error) {
	n, err := br.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*minTermRecord > int64(br.remaining()) {
		return 0, fmt.Errorf("search: corrupt index (%s term count %d)", section, n)
	}
	return int(n), nil
}

// readShard decodes one shard's postings, positions and ordAll sections
// straight into ix.col. Each section is walked twice: the first walk checks
// every count, id and order and sizes the columns, the second fills them
// from the bytes just checked. It returns the shard's document lengths,
// accumulated from the stored term frequencies (a doc's length is exactly
// the sum of its tf mass), for rank.
func (br *byteReader) readShard(ix *Index) (docLen []int, err error) {
	nDocs := len(ix.docs)
	english := ix.english()

	nTerms, err := br.termCount("postings")
	if err != nil {
		return nil, err
	}
	terms := make([]string, nTerms)
	counts := make([][2]int32, nTerms) // per term: English, other postings
	nEng, nOth := 0, 0
	postingsAt := br.off
	for t := range terms {
		term, err := br.str()
		if err != nil {
			return nil, err
		}
		if t > 0 && term <= terms[t-1] {
			return nil, fmt.Errorf("search: corrupt index (postings terms out of order at %q)", term)
		}
		terms[t] = term
		n, err := br.u32()
		if err != nil {
			return nil, err
		}
		if n == 0 || int(n) > nDocs {
			return nil, fmt.Errorf("search: corrupt index (term %q has %d postings in a %d-doc shard)", term, n, nDocs)
		}
		blk, err := br.block(8 * int(n))
		if err != nil {
			return nil, err
		}
		prevDoc := -1
		for j := 0; j < int(n); j++ {
			doc := int(binary.LittleEndian.Uint32(blk[8*j:]))
			tf := binary.LittleEndian.Uint32(blk[8*j+4:])
			// A term cannot occur more often than a maxStr-bounded document
			// has words, so a tf past int32 is a lie, not a big document.
			if doc <= prevDoc || doc >= nDocs || tf == 0 || tf > math.MaxInt32 {
				return nil, fmt.Errorf("search: corrupt index (posting %d of %q: doc %d, tf %d)", j, term, doc, tf)
			}
			prevDoc = doc
			if english[doc] {
				counts[t][0]++
			} else {
				counts[t][1]++
			}
		}
		nEng += int(counts[t][0])
		nOth += int(counts[t][1])
	}

	nPosTerms, err := br.termCount("positional")
	if err != nil {
		return nil, err
	}
	lists := make([]int32, nTerms) // per term: docs with a position list
	nLists, nPos := 0, 0
	positionsAt := br.off
	prevTerm, tid := "", 0
	for t := 0; t < nPosTerms; t++ {
		term, err := br.str()
		if err != nil {
			return nil, err
		}
		if t > 0 && term <= prevTerm {
			return nil, fmt.Errorf("search: corrupt index (positional terms out of order at %q)", term)
		}
		prevTerm = term
		for tid < nTerms && terms[tid] < term {
			tid++
		}
		if tid == nTerms || terms[tid] != term {
			return nil, fmt.Errorf("search: corrupt index (positional term %q has no postings)", term)
		}
		nd, err := br.u32()
		if err != nil {
			return nil, err
		}
		if nd == 0 || int(nd) > nDocs {
			return nil, fmt.Errorf("search: corrupt index (term %q has position lists for %d of %d docs)", term, nd, nDocs)
		}
		hdr, err := br.block(8 * int(nd))
		if err != nil {
			return nil, err
		}
		// The term's positions follow its header, doc-major: one block per
		// list, read in step.
		prevDoc := -1
		for j := 0; j < int(nd); j++ {
			doc := int(binary.LittleEndian.Uint32(hdr[8*j:]))
			np := int(binary.LittleEndian.Uint32(hdr[8*j+4:]))
			if doc <= prevDoc || doc >= nDocs {
				return nil, fmt.Errorf("search: corrupt index (position list %d of %q: doc %d)", j, term, doc)
			}
			limit := len(ix.contentToRaw[doc])
			if np == 0 || np > limit {
				return nil, fmt.Errorf("search: corrupt index (doc %d claims %d positions of %d content words)", doc, np, limit)
			}
			blk, err := br.block(4 * np)
			if err != nil {
				return nil, err
			}
			prev := int32(-1)
			for p := 0; p < np; p++ {
				v := int32(binary.LittleEndian.Uint32(blk[4*p:]))
				if v <= prev || v >= int32(limit) {
					return nil, fmt.Errorf("search: corrupt index (position %d of %q in doc %d: %d)", p, term, doc, v)
				}
				prev = v
			}
			prevDoc = doc
			nPos += np
		}
		lists[tid] = int32(nd)
		nLists += int(nd)
	}

	ordLen, err := br.u32()
	if err != nil {
		return nil, err
	}
	if int(ordLen) != nEng {
		return nil, fmt.Errorf("search: corrupt index (ordAll has %d entries, English postings %d)", ordLen, nEng)
	}
	ordBlk, err := br.block(4 * nEng)
	if err != nil {
		return nil, err
	}

	// Fill. Everything below re-reads bytes the walks above accepted, so it
	// indexes the stream directly.
	c := newColumns(terms, nEng, nOth, nLists, nPos)
	docLen = make([]int, nDocs)
	data := br.data
	at := postingsAt
	for t, term := range terms {
		e, o := c.engOff[t], c.othOff[t]
		at += 4 + len(term) + 4
		for n := counts[t][0] + counts[t][1]; n > 0; n-- {
			doc := int32(binary.LittleEndian.Uint32(data[at:]))
			tf := int32(binary.LittleEndian.Uint32(data[at+4:]))
			at += 8
			docLen[doc] += int(tf)
			if english[doc] {
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
				c.posDoc[l] = int32(binary.LittleEndian.Uint32(data[at:]))
				p += int32(binary.LittleEndian.Uint32(data[at+4:]))
				c.posStart[l+1] = p
				at += 8
			}
			for i := first; i < p; i++ {
				c.posArena[i] = int32(binary.LittleEndian.Uint32(data[at:]))
				at += 4
			}
		}
		c.posOff[t+1] = l
	}
	c.ordAll = make([]int32, nEng)
	for i := range c.ordAll {
		c.ordAll[i] = int32(binary.LittleEndian.Uint32(ordBlk[4*i:]))
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

// readV4 reconstructs a sharded index directly from a v4 stream.
func readV4(br *byteReader, shards int) (*ShardedIndex, error) {
	docCount, err := br.u32()
	if err != nil {
		return nil, err
	}
	// A doc record is at least 21 bytes (four string lengths, flags, word
	// count), bounding the claimed count by the stream itself.
	if int64(docCount)*21 > int64(br.remaining()) {
		return nil, fmt.Errorf("search: corrupt index (doc count %d)", docCount)
	}
	s := newShardedIndex(shards, int(docCount))
	for g := 0; g < int(docCount); g++ {
		if err := br.readDoc(s.shards[g%shards]); err != nil {
			return nil, fmt.Errorf("search: doc %d: %w", g, err)
		}
	}
	docLen := make([][]int, shards)
	for si, sh := range s.shards {
		if docLen[si], err = br.readShard(sh); err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	if br.remaining() != 0 {
		return nil, fmt.Errorf("search: corrupt index (%d trailing bytes)", br.remaining())
	}

	// Finish as Builder.Freeze does, but with each shard's stored ordAll
	// checked instead of sorted.
	rank(s.shards, docLen, s.nDocs)
	for si, sh := range s.shards {
		if err := sh.col.checkOrd(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		sh.col.scatterDense(len(sh.docs))
	}
	return s, nil
}

// ReadShardedIndex loads an index snapshot written by WriteTo, with the
// stored shard count, ready to serve queries. The whole stream is buffered in memory first (callers open
// bounded files), which lets the decoder work over flat blocks instead of
// per-integer reads.
func ReadShardedIndex(r io.Reader) (*ShardedIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("search: reading index: %w", err)
	}
	return ReadShardedIndexBytes(data)
}

// ReadShardedIndexBytes is ReadShardedIndex over an already-buffered stream.
// Callers that hold the encoded section in memory (the snapshot bundle
// reader, after checksumming) use this to skip a second full-stream copy.
func ReadShardedIndexBytes(data []byte) (*ShardedIndex, error) {
	br := &byteReader{data: data}
	magic, err := br.block(4)
	if err != nil {
		return nil, fmt.Errorf("search: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("search: bad magic %q", magic)
	}
	version, err := br.u32()
	if err != nil {
		return nil, err
	}
	if version != indexVersion {
		return nil, fmt.Errorf("search: unsupported index version %d", version)
	}
	shards, err := br.u32()
	if err != nil {
		return nil, err
	}
	if shards == 0 || shards > 1<<16 {
		return nil, fmt.Errorf("search: corrupt index (shard count %d)", shards)
	}
	return readV4(br, int(shards))
}
