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

// TestTIDXBytesLocked pins the format: the sha256 of WriteTo over three fixed
// corpora, recorded from the writer that emitted from the postings maps
// (commit 8ba8cf8) before the columns became the only state.
func TestTIDXBytesLocked(t *testing.T) {
	for _, c := range []struct {
		name string
		six  *ShardedIndex
		want string
	}{
		{"smallDocs x1", buildSharded(smallDocs(), 1), "15625ba8aec355d8ab488f4baf69a8872cffae0274ce3eef095bb9706efff6d5"},
		{"smallDocs x2", buildSharded(smallDocs(), 2), "d81a69c7705cc6ba10323dc38e9550ce5b7201c3ffcaaf167d1a1b89c59de210"},
		{"randomCorpus(11, 50) x4", buildSharded(randomCorpus(rand.New(rand.NewSource(11)), 50), 4), "abdf68ff12df328b9ea7d21819f2bdf6c0f531f47513d82caa3ead84cfdbe109"},
	} {
		sum := sha256.Sum256(tidx(t, c.six))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, recorded %s", c.name, got, c.want)
		}
	}
}

// tidxFields walks a valid one-shard stream and returns the byte offsets of
// the fields the corruption tests and the fuzz corpus patch: the first doc's
// body text and content-word bitmap, the two term counts, the first posting's
// doc and tf, the first position list's doc, the first stored position, and
// the first ordAll entry.
type tidxFields struct {
	body, bitmap, termCount, doc, tf, posTermCount, posDoc, position, ord int
}

func locateFields(t testing.TB, data []byte) tidxFields {
	t.Helper()
	br := codec.NewReader("locateFields", data)
	br.Bytes(12)
	scratch := newShardedIndex(1, 0)
	var f tidxFields
	for n := br.U32(); n > 0; n-- {
		first := br.Offset()
		if err := readDoc(br, scratch.shards[0]); err != nil {
			t.Fatal(err)
		}
		if f.body == 0 {
			d := scratch.shards[0].docs[0]
			f.body = first + 4 + len(d.URL) + 4 + len(d.Title) + 4
			f.bitmap = br.Offset() - (len(scratch.shards[0].wordOff[0])+7)/8
		}
	}
	f.termCount = br.Offset()
	for n := br.U32(); n > 0; n-- {
		br.Str()
		np := int(br.U32())
		if f.doc == 0 {
			f.doc, f.tf = br.Offset(), br.Offset()+4
		}
		br.Bytes(8 * np)
	}
	f.posTermCount = br.Offset()
	for n := br.U32(); n > 0; n-- {
		br.Str()
		nd := int(br.U32())
		hdr := br.Bytes(8 * nd)
		if f.posDoc == 0 {
			f.posDoc, f.position = br.Offset()-8*nd, br.Offset()
		}
		for j := 0; j < nd; j++ {
			br.Bytes(4 * int(binary.LittleEndian.Uint32(hdr[8*j+4:])))
		}
	}
	f.ord = br.Offset() + 4
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

// TestReadRejectsCountLieCheaply: a term count the remaining bytes cannot
// hold is refused before anything is sized from it. 1<<22 is the largest
// value the former pre-sized-map cap let through; on this 3 KB stream it cost
// 384 MB and 300 ms before the rejection.
func TestReadRejectsCountLieCheaply(t *testing.T) {
	data := tidx(t, smallIndex())
	f := locateFields(t, data)
	for name, off := range map[string]int{"postings": f.termCount, "positional": f.posTermCount} {
		lie := patched(data, off, 1<<22)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadShardedIndex(lie)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), name+" term count") {
			t.Fatalf("%s: err = %v, want a term count rejection", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", name, len(lie), got)
		}
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

// TestReadV4TruncationSweep: every proper prefix of a v4 stream must be
// rejected with an error — no prefix may load and none may panic.
func TestReadV4TruncationSweep(t *testing.T) {
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

// TestReadIndexRejectsWrongVersion: version 4 is the only format. A stream
// whose header names any other version — including 2 and 3, which no writer
// has produced since the direct-image format replaced them — is refused by
// version, whatever follows; a version-4 header with nothing behind it is
// refused as truncated.
func TestReadIndexRejectsWrongVersion(t *testing.T) {
	ix := smallIndex()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, version := range []byte{2, 3, 99} {
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
		t.Errorf("bare v4 header: err = %v, want a truncation error", err)
	}
}
