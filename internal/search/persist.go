package search

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
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
// The stream is a direct image of the index: the reader reconstructs the
// postings and positional maps straight from the stored lists and rebuilds
// the remaining derived state (word offsets, content-position mapping, BM25
// constants, the columnar scoring form) from the stored bodies, bitmaps and
// ordAll — no tokenisation, no stemming and no freeze-time sorting, which is
// what makes loading a snapshot several times faster than rebuilding the
// corpus. Every count and id is bounds-checked during decoding, so a corrupt
// or adversarial stream yields an error, never a panic or a huge allocation.
// Any other version is rejected.

const (
	indexMagic   = "TIDX"
	indexVersion = 4

	// maxStr caps any length-prefixed string in the stream.
	maxStr = 1 << 26
	// maxTermHint caps the pre-sized term-map hint taken from the stream.
	maxTermHint = 1 << 22
)

// sortedTerms returns m's keys sorted, so snapshots are byte-reproducible.
func sortedTerms[V any](m map[string]V) []string {
	terms := make([]string, 0, len(m))
	for t := range m {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}

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
	words := ix.bodyToks[ld]
	if err := pw.u32(uint32(len(words))); err != nil {
		return err
	}
	bitmap := make([]byte, (len(words)+7)/8)
	for _, raw := range ix.contentToRaw[ld] {
		bitmap[raw/8] |= 1 << (raw % 8)
	}
	_, err := pw.Write(bitmap)
	return err
}

// sections writes one shard's postings, positions and ordAll sections.
// The index must be frozen (ordAll is freeze-derived state).
func (pw *persistWriter) sections(ix *Index) error {
	if err := pw.u32(uint32(len(ix.postings))); err != nil {
		return err
	}
	for _, term := range ix.col.terms {
		plist := ix.postings[term]
		if err := pw.str(term); err != nil {
			return err
		}
		if err := pw.u32(uint32(len(plist))); err != nil {
			return err
		}
		for _, p := range plist {
			if err := pw.u32(uint32(p.doc)); err != nil {
				return err
			}
			if err := pw.u32(uint32(p.tf)); err != nil {
				return err
			}
		}
	}
	if err := pw.u32(uint32(len(ix.positions))); err != nil {
		return err
	}
	for _, term := range sortedTerms(ix.positions) {
		plist := ix.positions[term]
		if err := pw.str(term); err != nil {
			return err
		}
		if err := pw.u32(uint32(len(plist))); err != nil {
			return err
		}
		for _, p := range plist {
			if err := pw.u32(uint32(p.doc)); err != nil {
				return err
			}
			if err := pw.u32(uint32(len(p.pos))); err != nil {
				return err
			}
		}
		for _, p := range plist {
			for _, pos := range p.pos {
				if err := pw.u32(uint32(pos)); err != nil {
					return err
				}
			}
		}
	}
	if err := pw.u32(uint32(len(ix.col.ordAll))); err != nil {
		return err
	}
	for _, e := range ix.col.ordAll {
		if err := pw.u32(uint32(e)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTo serialises the index: documents once in global order, then
// each shard's sections, freezing first. It returns the byte count written.
func (s *ShardedIndex) WriteTo(w io.Writer) (int64, error) {
	s.Freeze()
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
			if err := pw.sections(sh); err != nil {
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

// readDocV4 decodes one document record into shard ix, deriving the
// snippet-serving state (word offsets, joined body, content-to-raw mapping)
// from the stored body and bitmap. wordStem stays nil: it is only written
// during live tokenisation and never read afterwards.
func (br *byteReader) readDocV4(ix *Index) error {
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
	if flags&1 != 0 {
		var ok bool
		if words, ok = splitCanonical(body); !ok {
			return fmt.Errorf("search: corrupt index (body is not its own single-space join)")
		}
	} else {
		words = strings.Fields(body)
	}
	if len(words) != int(nWords) {
		return fmt.Errorf("search: corrupt index (doc stores %d words, body has %d)", nWords, len(words))
	}
	joined := body
	if flags&1 == 0 {
		joined = strings.Join(words, " ")
	}
	off := make([]int32, len(words))
	b := int32(0)
	for i, w := range words {
		off[i] = b
		b += int32(len(w)) + 1
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
	ix.docs = append(ix.docs, Document{
		ID: len(ix.docs), URL: fields[0], Title: fields[1], Body: body, Lang: lang,
	})
	ix.bodyToks = append(ix.bodyToks, words)
	ix.wordStem = append(ix.wordStem, nil)
	ix.english = append(ix.english, lang == "en")
	ix.bodyJoined = append(ix.bodyJoined, joined)
	ix.wordOff = append(ix.wordOff, off)
	ix.contentToRaw = append(ix.contentToRaw, c2r)
	ix.docLen = append(ix.docLen, 0)
	return nil
}

// readShardV4 decodes one shard's postings, positions and ordAll sections
// directly into ix's maps, accumulating document lengths from the stored
// term frequencies (a doc's length is exactly the sum of its tf mass). The
// returned ord permutation is installed during the freeze step.
func (br *byteReader) readShardV4(ix *Index) (ord []int32, err error) {
	nDocs := len(ix.docs)

	termCount, err := br.u32()
	if err != nil {
		return nil, err
	}
	if termCount > maxTermHint {
		return nil, fmt.Errorf("search: corrupt index (term count %d)", termCount)
	}
	ix.postings = make(map[string][]posting, termCount)
	prevTerm := ""
	for t := uint32(0); t < termCount; t++ {
		term, err := br.str()
		if err != nil {
			return nil, err
		}
		if t > 0 && term <= prevTerm {
			return nil, fmt.Errorf("search: corrupt index (postings terms out of order at %q)", term)
		}
		prevTerm = term
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
		plist := make([]posting, n)
		prevDoc := -1
		for j := range plist {
			doc := int(binary.LittleEndian.Uint32(blk[8*j:]))
			tf := int(binary.LittleEndian.Uint32(blk[8*j+4:]))
			if doc <= prevDoc || doc >= nDocs || tf == 0 {
				return nil, fmt.Errorf("search: corrupt index (posting %d of %q: doc %d, tf %d)", j, term, doc, tf)
			}
			plist[j] = posting{doc: doc, tf: tf}
			ix.docLen[doc] += tf
			prevDoc = doc
		}
		ix.postings[term] = plist
	}
	for _, dl := range ix.docLen {
		ix.totalLen += dl
	}

	posTermCount, err := br.u32()
	if err != nil {
		return nil, err
	}
	if posTermCount > maxTermHint {
		return nil, fmt.Errorf("search: corrupt index (positional term count %d)", posTermCount)
	}
	ix.positions = make(map[string][]posPosting, posTermCount)
	prevTerm = ""
	for t := uint32(0); t < posTermCount; t++ {
		term, err := br.str()
		if err != nil {
			return nil, err
		}
		if t > 0 && term <= prevTerm {
			return nil, fmt.Errorf("search: corrupt index (positional terms out of order at %q)", term)
		}
		prevTerm = term
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
		total := 0
		prevDoc := -1
		for j := 0; j < int(nd); j++ {
			doc := int(binary.LittleEndian.Uint32(hdr[8*j:]))
			np := int(binary.LittleEndian.Uint32(hdr[8*j+4:]))
			if doc <= prevDoc || doc >= nDocs {
				return nil, fmt.Errorf("search: corrupt index (position list %d of %q: doc %d)", j, term, doc)
			}
			if np == 0 || np > len(ix.contentToRaw[doc]) {
				return nil, fmt.Errorf("search: corrupt index (doc %d claims %d positions of %d content words)", doc, np, len(ix.contentToRaw[doc]))
			}
			prevDoc = doc
			total += np
		}
		blk, err := br.block(4 * total)
		if err != nil {
			return nil, err
		}
		arena := make([]int32, total)
		plist := make([]posPosting, nd)
		k := 0
		for j := 0; j < int(nd); j++ {
			doc := int(binary.LittleEndian.Uint32(hdr[8*j:]))
			np := int(binary.LittleEndian.Uint32(hdr[8*j+4:]))
			sub := arena[k : k+np : k+np]
			prev := int32(-1)
			limit := int32(len(ix.contentToRaw[doc]))
			for p := 0; p < np; p++ {
				v := int32(binary.LittleEndian.Uint32(blk[4*(k+p):]))
				if v <= prev || v >= limit {
					return nil, fmt.Errorf("search: corrupt index (position %d of %q in doc %d: %d)", p, term, doc, v)
				}
				sub[p] = v
				prev = v
			}
			plist[j] = posPosting{doc: doc, pos: sub}
			k += np
		}
		ix.positions[term] = plist
	}

	ordLen, err := br.u32()
	if err != nil {
		return nil, err
	}
	blk, err := br.block(4 * int(ordLen))
	if err != nil {
		return nil, err
	}
	ord = make([]int32, ordLen)
	for i := range ord {
		ord[i] = int32(binary.LittleEndian.Uint32(blk[4*i:]))
	}
	return ord, nil
}

// freezeFromPersist installs the global ranking state and compiles the
// columnar form with a stored ordAll permutation instead of re-sorting.
// The permutation is validated per term section: entries in bounds and in
// strictly descending (contribution, doc asc) order — which, with the length
// check, also proves it is a permutation.
func (ix *Index) freezeFromPersist(idf map[string]float64, avgLen float64, ord []int32) error {
	ix.idf = idf
	ix.avgLen = avgLen
	ix.freezeNormK()
	c := ix.buildCSR()
	if len(ord) != len(c.engDoc) {
		return fmt.Errorf("search: corrupt index (ordAll has %d entries, English postings %d)", len(ord), len(c.engDoc))
	}
	for tid := range c.terms {
		lo, hi := c.engOff[tid], c.engOff[tid+1]
		sec := ord[lo:hi]
		docs := c.engDoc[lo:hi]
		contribs := c.engContrib[lo:hi]
		for i, e := range sec {
			if e < 0 || int(e) >= len(docs) {
				return fmt.Errorf("search: corrupt index (ordAll entry %d of term %q out of range)", e, c.terms[tid])
			}
			if i > 0 {
				a := sec[i-1]
				if !(contribs[a] > contribs[e] || (contribs[a] == contribs[e] && docs[a] < docs[e])) {
					return fmt.Errorf("search: corrupt index (ordAll of term %q not in contribution order)", c.terms[tid])
				}
			}
		}
	}
	c.ordAll = ord
	ix.scatterDense(c)
	ix.col = c
	return nil
}

// readV4 reconstructs a sharded index directly from a v4 stream.
func readV4(br *byteReader, shards int) (*ShardedIndex, error) {
	s := NewShardedIndex(shards)
	docCount, err := br.u32()
	if err != nil {
		return nil, err
	}
	// A doc record is at least 21 bytes (four string lengths, flags, word
	// count), bounding the claimed count by the stream itself.
	if int64(docCount)*21 > int64(br.remaining()) {
		return nil, fmt.Errorf("search: corrupt index (doc count %d)", docCount)
	}
	for g := 0; g < int(docCount); g++ {
		if err := br.readDocV4(s.shards[g%shards]); err != nil {
			return nil, fmt.Errorf("search: doc %d: %w", g, err)
		}
	}
	s.nDocs = int(docCount)
	ords := make([][]int32, shards)
	for si, sh := range s.shards {
		if ords[si], err = br.readShardV4(sh); err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	if br.remaining() != 0 {
		return nil, fmt.Errorf("search: corrupt index (%d trailing bytes)", br.remaining())
	}

	// Global freeze as in ShardedIndex.Freeze, but with each shard's stored
	// ordAll instead of a freeze-time sort.
	idf, avgLen := s.globalRanking()
	for si, sh := range s.shards {
		if err := sh.freezeFromPersist(idf, avgLen, ords[si]); err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	s.frozen.Store(true)
	return s, nil
}

// ReadShardedIndex loads an index snapshot written by WriteTo, with the
// stored shard count. The loaded index is returned frozen and ready to serve
// queries. The whole stream is buffered in memory first (callers open
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
