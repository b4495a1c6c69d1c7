package search

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

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
	loaded, err := ReadShardedIndex(&buf)
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
			if a[i] != b[i] {
				t.Errorf("query %q result %d differs: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadShardedIndex(bytes.NewReader([]byte("not an index at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadShardedIndex(bytes.NewReader(nil)); err == nil {
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
		if _, err := ReadShardedIndex(bytes.NewReader(data[:cut])); err == nil {
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
		if _, err := ReadShardedIndexBytes(data[:cut]); err == nil {
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
			_, err := ReadShardedIndex(bytes.NewReader(stream))
			if err == nil || !strings.Contains(err.Error(), "unsupported index version") {
				t.Errorf("version %d, %d bytes: err = %v, want unsupported index version", version, len(stream), err)
			}
		}
	}
	data[4] = indexVersion
	if _, err := ReadShardedIndex(bytes.NewReader(data[:8])); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("bare v4 header: err = %v, want a truncation error", err)
	}
}
