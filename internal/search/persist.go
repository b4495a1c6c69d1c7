package search

import (
	"io"
	"slices"

	"repro/internal/codec"
)

// Index persistence. TIDX version 5, the one format (little-endian):
//
//	magic "TIDX" | version u32 | shardCount u32 | docCount u32
//	then per doc in global order: url, title, body, lang
//	    (u32-length-prefixed strings)
//
// The stream holds the documents and nothing else. Everything a query reads —
// postings, ordAll, contributions, the dense sidecars and the term-id column —
// is state Build derives from the documents, so ReadShardedIndex decodes the
// documents and returns Build over them at the stored shard count: build and
// load are one code path, a loaded index is the index a build over the same
// documents makes, and no stream can carry derived state that disagrees with
// its documents. The document count and every string length are refused
// unless the bytes that remain can hold them, and the shard count unless the
// document count or fewShards covers it, so a corrupt or adversarial stream
// yields an error before anything is indexed, never a panic, and the shards a
// stream makes the reader build stay in proportion to its bytes. Any other
// version is rejected.

const (
	indexMagic   = "TIDX"
	indexVersion = 5

	// minDocRecord is the least a doc record occupies (four string lengths):
	// the codec refuses a doc count the bytes that remain cannot hold.
	minDocRecord = 16
	// maxShards bounds the stored shard count. Past fewShards it may not
	// exceed the document count either: even an empty shard costs about a
	// kilobyte to freeze.
	maxShards = 1 << 16
	fewShards = 64
)

// AppendTo appends the index's TIDX stream to b: the shard count, then the
// documents in global order.
func (s *ShardedIndex) AppendTo(b []byte) []byte {
	n := len(s.shards)
	b = codec.AppendHeader(b, indexMagic, indexVersion)
	b = codec.AppendU32(b, uint32(n))
	b = codec.AppendU32(b, uint32(s.nDocs))
	for g := 0; g < s.nDocs; g++ {
		d := s.shards[g%n].docs[g/n]
		for _, f := range []string{d.URL, d.Title, d.Body, d.Lang} {
			b = codec.AppendStr(b, f)
		}
	}
	return b
}

// WriteTo writes the TIDX stream to w in one Write and returns the byte count
// w accepted.
func (s *ShardedIndex) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(s.AppendTo(nil))
	return int64(n), err
}

// ReadShardedIndex loads the TIDX stream data (written by WriteTo, held in
// memory by the caller): it decodes the documents and builds the index over
// them at the stored shard count, ready to serve queries.
func ReadShardedIndex(data []byte) (*ShardedIndex, error) {
	br := codec.NewReader("search: corrupt index", data)
	if err := br.Header(indexMagic, indexVersion); err != nil {
		return nil, err
	}
	shards := int(br.U32())
	n := br.Count("doc", minDocRecord)
	if err := br.Err(); err != nil {
		return nil, err
	}
	if shards == 0 || shards > maxShards || shards > max(n, fewShards) {
		return nil, br.Corrupt("shard count %d for %d docs", shards, n)
	}
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = Document{URL: br.Str(), Title: br.Str(), Body: br.Str(), Lang: br.Str()}
	}
	if err := br.Done(); err != nil {
		return nil, err
	}
	return Build(shards, slices.Values(docs)), nil
}
