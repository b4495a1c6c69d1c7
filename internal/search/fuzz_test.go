package search

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzShardedSearchEquivalence drives the sharded and monolithic engines
// with arbitrary query strings over two corpora — six documents, and
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
// testdata/fuzz by name: valid one- and two-shard streams, the term-count lie,
// one-shard streams with a single count, doc, tf, position or ordAll
// field flipped, and the three ways stored positions can fail to tile a
// document's content words, which only the term-id scatter sees: the first
// term's position moved onto another term's word, the first document's leading
// stop-word flagged as a content word (every position stays in range, the last
// content word is left over), and that stop-word respelled into a word no
// postings list knows.
func indexStreamSeeds(t testing.TB) map[string][]byte {
	one := tidx(t, smallIndex())
	f := locateFields(t, one)
	le := binary.LittleEndian
	elsewhere := uint32(0)
	if le.Uint32(one[f.position:]) == 0 {
		elsewhere = 1
	}
	return map[string][]byte{
		"position-claimed-twice": patched(one, f.position, elsewhere),
		"position-unclaimed":     patched(one, f.bitmap, le.Uint32(one[f.bitmap:])|1),
		"token-without-postings": patched(one, f.body, le.Uint32([]byte("thx "))),
		"valid-1-shard":          one,
		"valid-2-shards":         tidx(t, buildSharded(smallDocs(), 2)),
		"term-count-lie":         patched(one, f.termCount, 1<<22),
		"pos-term-count-lie":     patched(one, f.posTermCount, 1<<22),
		"term-count-short":       patched(one, f.termCount, 3),
		"posting-doc":            patched(one, f.doc, 4),
		"posting-tf-zero":        patched(one, f.tf, 0),
		"posting-tf-huge":        patched(one, f.tf, 1<<31),
		"position-list-doc":      patched(one, f.posDoc, 1<<30),
		"position-past-end":      patched(one, f.position, 1000),
		"ord-out-of-range":       patched(one, f.ord, 7),
		"ord-swapped":            patched(one, f.ord, 1),
	}
}

// FuzzReadShardedIndex feeds arbitrary bytes to the TIDX reader. It must
// reject with an error — never panic, never size anything from an unchecked
// count — or accept; an accepted index must answer single and batch queries
// without panicking and persist to bytes that load and persist to themselves.
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
	})
}

// TestIndexStreamCorpusCheckedIn: the checked-in corpus is exactly what
// indexStreamSeeds produces — so the valid streams, written before the columns
// became the only state, also pin the writer — and the reader accepts the
// valid streams and rejects every patched one.
func TestIndexStreamCorpusCheckedIn(t *testing.T) {
	for name, data := range indexStreamSeeds(t) {
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadShardedIndex", name))
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
}
