package search

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzShardedSearchEquivalence drives the sharded and monolithic engines
// with arbitrary query strings over two corpora — seven documents, one with
// hyphenated words a query term hides in before its plain occurrence, and
// deferralCorpus, whose common words are long enough columns in every shard
// for the kernel to defer them: every query must produce identical results
// (order, bytes and score bits) at every shard count.
func FuzzShardedSearchEquivalence(f *testing.F) {
	for _, seed := range []string{
		`melisse restaurant`,
		`"chez martin" restaurant`,
		`"the of and"`,
		`"`,
		"",
		"santa monica museum gallery",
		// Quotes are punctuation to the tokenizer: balanced, dangling,
		// empty, nested or glued to words, they only separate terms.
		`"Chez Martin" restaurant`,
		`melisse`,
		`"melisse"`,
		`"a" "b c" d`,
		`"unterminated phrase`,
		`"a b`,
		`""`,
		`"""`,
		`""""`,
		`"" "" ""`,
		`a"b"c"d`,
		` " spaced " phrase " `,
		`"nested ""quotes"" here"`,
		"\"\x00\" weird",
		"plain terms only",
		"jazz museum",
		"rock roll",
	} {
		f.Add(seed)
	}
	type engines struct {
		ix      *ShardedIndex
		sharded []*ShardedIndex
	}
	var corpora []engines
	for _, docs := range [][]Document{{
		{URL: "s1", Title: "Chez Martin", Body: "chez martin is a dining restaurant with a seasonal menu"},
		{URL: "s2", Title: "Melisse", Body: "melisse is a fine dining restaurant in santa monica"},
		{URL: "s3", Title: "Louvre Museum", Body: "the louvre museum in paris hosts a famous art collection"},
		{URL: "s4", Title: "Harbor Gallery", Body: "the harbor gallery shows paintings sculpture and a museum shop"},
		{URL: "s5", Title: "Ailleurs", Body: "un restaurant qui ne parle pas anglais", Lang: "fr"},
		{URL: "s6", Title: "Melisse", Body: "melisse is a fine dining restaurant in santa monica"}, // duplicate: ties
		{URL: "s7", Title: "Blue Note", Body: "the blue-note jazz-club by the museum hosts jazz nights and a rock-n-roll brunch"},
	}, deferralCorpus()} {
		corpora = append(corpora, engines{buildSharded(docs, 1),
			[]*ShardedIndex{buildSharded(docs, 2), buildSharded(docs, 3), buildSharded(docs, 5)}})
	}
	f.Fuzz(func(t *testing.T, query string) {
		const k = 4
		for _, c := range corpora {
			want := c.ix.Search(query, k)
			for _, six := range c.sharded {
				checkBitIdentical(t, fmt.Sprintf("%d docs shards=%d Search(%q)", c.ix.Len(), six.NumShards(), query), six.Search(query, k), want)
			}
		}
	})
}

// indexStreamSeeds are FuzzReadShardedIndex's starting points, checked in under
// testdata/fuzz by name: valid one- and two-shard streams, one-shard streams
// with a doc count the bytes cannot hold, a doc count short of the records
// (trailing bytes), a zero shard count, the first body's length claiming more
// than the stream holds, and a record cut inside its body, and a stream of no
// documents in maxShards shards.
func indexStreamSeeds(t testing.TB) map[string][]byte {
	one := tidx(t, smallIndex())
	f := locateFields(t, one)
	return map[string][]byte{
		"valid-1-shard":     one,
		"valid-2-shards":    tidx(t, buildSharded(smallDocs(), 2)),
		"doc-count-lie":     patched(one, f.docCount, 1<<22),
		"doc-count-short":   patched(one, f.docCount, 1),
		"shard-count-zero":  patched(one, f.shards, 0),
		"string-length-lie": patched(one, f.bodyLen, 1<<30),
		"record-cut":        one[:f.body+2],
		"shard-count-huge":  v5Stream(nil, maxShards),
	}
}

// v4StreamSeeds name the rest of FuzzReadShardedIndex's corpus: one-shard
// streams the v4 writer produced, each with one count, doc, tf, position or
// ordAll field flipped. No writer makes them any more, so they are checked in
// as recorded. Bundles written before v5 hold such streams; the reader must
// refuse each by version, and each still seeds the fuzzer with a stream whose
// documents are followed by the v4 sections.
var v4StreamSeeds = []string{
	"ord-out-of-range", "ord-swapped", "pos-term-count-lie",
	"position-claimed-twice", "position-list-doc", "position-past-end",
	"position-unclaimed", "posting-doc", "posting-tf-huge", "posting-tf-zero",
	"term-count-lie", "term-count-short", "token-without-postings",
}

// FuzzReadShardedIndex feeds arbitrary bytes to the TIDX reader. It must
// reject with an error — never panic, never size anything from an unchecked
// count — or accept; an accepted index must answer single and batch queries
// without panicking and persist to bytes that load to the same state and
// persist to themselves.
func FuzzReadShardedIndex(f *testing.F) {
	queries := []string{"melisse restaurant", `"santa monica" menu`, "museum", `"fine dining"`, ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		six, err := ReadShardedIndex(data)
		if err != nil {
			return
		}
		for _, q := range queries {
			six.Search(q, 3)
		}
		six.SearchBatch(queries, 3)
		first := tidx(t, six)
		again, err := ReadShardedIndex(first)
		if err != nil {
			t.Fatalf("an accepted index persisted to a stream the reader rejects: %v", err)
		}
		if !bytes.Equal(tidx(t, again), first) {
			t.Fatal("WriteTo -> Read -> WriteTo is not a byte fixed point")
		}
		if !sameIndex(again, six) {
			t.Fatal("reloading an accepted index derives other state")
		}
	})
}

// TestIndexStreamCorpusCheckedIn: the checked-in corpus is exactly what
// indexStreamSeeds produces — so the valid streams also pin the writer — plus
// the v4 streams; the reader accepts the valid streams and rejects every
// patched one. A v4 stream is refused by version, and relabelled v5 it is
// still refused: its v4 sections are never loaded or skipped.
func TestIndexStreamCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadShardedIndex")
	seeds := indexStreamSeeds(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(seeds) + len(v4StreamSeeds); len(entries) != want {
		t.Errorf("corpus holds %d files, want %d", len(entries), want)
	}
	for name, data := range seeds {
		file, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data); string(file) != want {
			t.Errorf("%s: checked-in corpus file differs from the generated seed", name)
		}
		_, err = ReadShardedIndex(data)
		if valid := strings.HasPrefix(name, "valid-"); valid != (err == nil) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	for _, name := range v4StreamSeeds {
		file, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(string(file), "go test fuzz v1\n[]byte(")
		quoted, ok2 := strings.CutSuffix(quoted, ")\n")
		data, err := strconv.Unquote(quoted)
		if !ok || !ok2 || err != nil || !strings.HasPrefix(data, "TIDX\x04\x00\x00\x00") {
			t.Errorf("%s: not a corpus file holding a TIDX v4 stream (unquote: %v)", name, err)
			continue
		}
		if _, err := ReadShardedIndex([]byte(data)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("%s: err = %v, want unsupported version", name, err)
		}
		relabelled := []byte(data)
		relabelled[4] = indexVersion
		if _, err := ReadShardedIndex(relabelled); err == nil {
			t.Errorf("%s relabelled v5: loaded without error", name)
		}
	}
}
