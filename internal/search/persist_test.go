package search

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/codec"
)

// tidx serialises an index, failing the test on a write error.
func tidx(t testing.TB, six *ShardedIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := six.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v5Stream is the TIDX v5 format written out by hand from its definition —
// header, shard count, doc count, then each document's four length-prefixed
// fields in global order — independently of the writer, the doc table and the
// codec.
func v5Stream(docs []Document, shards int) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("TIDX"), 5)
	b = le.AppendUint32(le.AppendUint32(b, uint32(shards)), uint32(len(docs)))
	for _, d := range docs {
		if d.Lang == "" {
			d.Lang = "en"
		}
		for _, f := range []string{d.URL, d.Title, d.Body, d.Lang} {
			b = append(le.AppendUint32(b, uint32(len(f))), f...)
		}
	}
	return b
}

// TestTIDXBytesLocked pins the format: WriteTo over three fixed corpora writes
// exactly the stream v5Stream generates from the documents, and the sha256 of
// each is the one recorded when v5 replaced the direct-image v4.
func TestTIDXBytesLocked(t *testing.T) {
	for _, c := range []struct {
		name   string
		docs   []Document
		shards int
		want   string
	}{
		{"smallDocs x1", smallDocs(), 1, "75325ec7789dc03d6d2d09205b5d1235ec540a1af80fd7ce95a5280db442f4ae"},
		{"smallDocs x2", smallDocs(), 2, "71bec35257cc5e1581c3bdafb0f8cda195caf522a5c426f9ce14167eabf0a5e8"},
		{"randomCorpus(11, 50) x4", randomCorpus(rand.New(rand.NewSource(11)), 50), 4, "69cc389a037757c07b47503472148402604efc62863ab1cb3184079e9be88545"},
	} {
		data := tidx(t, buildSharded(c.docs, c.shards))
		if !bytes.Equal(data, v5Stream(c.docs, c.shards)) {
			t.Errorf("%s: WriteTo differs from the generated v5 stream", c.name)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, recorded %s", c.name, got, c.want)
		}
	}
}

// tidxFields are the byte offsets in a valid stream of the fields the
// corruption tests and the fuzz corpus patch: the shard count, the doc count,
// and the first document's body length and body text.
type tidxFields struct {
	shards, docCount, bodyLen, body int
}

func locateFields(t testing.TB, data []byte) tidxFields {
	t.Helper()
	br := codec.NewReader("locateFields", data)
	f := tidxFields{shards: 8, docCount: 12}
	br.Bytes(16)
	br.Str() // url
	br.Str() // title
	f.bodyLen = br.Offset()
	f.body = f.bodyLen + 4
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	return f
}

// patched returns a copy of data with the u32 at off replaced.
func patched(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// TestReadRejectsCountLieCheaply: a doc count the remaining bytes cannot hold,
// and a shard count beyond both the doc count and FewShards, are refused
// before anything is sized from them. 1<<22 is the largest value the former
// pre-sized-map cap let through a term count; on a 3 KB stream it cost 384 MB
// and 300 ms before the rejection. A 16-byte stream of no documents in 2^16
// shards loaded, building every empty shard: 72 MB.
func TestReadRejectsCountLieCheaply(t *testing.T) {
	data := tidx(t, smallIndex())
	for _, c := range []struct {
		lie  []byte
		want string
	}{
		{patched(data, locateFields(t, data).docCount, 1<<22), "doc count"},
		{v5Stream(nil, maxShards), "shard count"},
		{v5Stream(smallDocs(), FewShards+1), "shard count"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadShardedIndex(c.lie)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("err = %v, want a %s rejection", err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("rejecting a %d-byte stream allocated %d bytes", len(c.lie), got)
		}
	}
	// At the bound a stream of no documents still loads, cheaply.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	six, err := ReadShardedIndex(v5Stream(nil, FewShards))
	runtime.ReadMemStats(&after)
	if err != nil || six.NumShards() != FewShards {
		t.Fatalf("no documents in %d shards: err = %v", FewShards, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("loading no documents in %d shards allocated %d bytes", FewShards, got)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	ix := smallIndex()
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	loaded, err := ReadShardedIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("loaded %d docs, want %d", loaded.Len(), ix.Len())
	}
	// Identical search behaviour.
	for _, q := range []string{"louvre museum", "melisse", "melisse santa monica", "forecast"} {
		a := ix.Search(q, 5)
		b := loaded.Search(q, 5)
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Errorf("query %q result %d differs: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadShardedIndex([]byte("not an index at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadShardedIndex(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadIndexRejectsTruncated(t *testing.T) {
	ix := smallIndex()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{5, 9, len(data) / 2, len(data) - 3} {
		if _, err := ReadShardedIndex(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// failAfter is an io.Writer that accepts n bytes then fails, driving every
// write-error return in the persist writers.
type failAfter struct {
	n int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("failAfter: write refused")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteToPropagatesErrors sweeps the failure point across the whole
// stream at one and three shards: every short write must surface an error
// (never a silent truncated file).
func TestWriteToPropagatesErrors(t *testing.T) {
	mono := smallIndex()
	var buf bytes.Buffer
	if _, err := mono.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut += 7 {
		if _, err := mono.WriteTo(&failAfter{n: cut}); err == nil {
			t.Fatalf("one-shard WriteTo with write failure at byte %d reported success", cut)
		}
	}

	sharded := buildSharded(smallDocs(), 3)
	buf.Reset()
	if _, err := sharded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut += 7 {
		if _, err := sharded.WriteTo(&failAfter{n: cut}); err == nil {
			t.Fatalf("sharded WriteTo with write failure at byte %d reported success", cut)
		}
	}
}

// TestReadV5TruncationSweep: every proper prefix of a v5 stream must be
// rejected with an error — no prefix may load and none may panic.
func TestReadV5TruncationSweep(t *testing.T) {
	sharded := buildSharded(smallDocs(), 2)
	var buf bytes.Buffer
	if _, err := sharded.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadShardedIndex(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(data))
		}
	}
}

// TestReadIndexRejectsWrongVersion: version 5 is the only format. A stream
// whose header names any other version — including 2, 3 and 4, which no
// writer has produced since the document-only format replaced them — is
// refused by version, whatever follows; a version-5 header with nothing
// behind it is refused as truncated.
func TestReadIndexRejectsWrongVersion(t *testing.T) {
	ix := smallIndex()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, version := range []byte{2, 3, 4, 99} {
		data[4] = version
		for _, stream := range [][]byte{data, data[:8]} {
			_, err := ReadShardedIndex(stream)
			if err == nil || !strings.Contains(err.Error(), "unsupported version") {
				t.Errorf("version %d, %d bytes: err = %v, want unsupported version", version, len(stream), err)
			}
		}
	}
	data[4] = indexVersion
	if _, err := ReadShardedIndex(data[:8]); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("bare v5 header: err = %v, want a truncation error", err)
	}
}
