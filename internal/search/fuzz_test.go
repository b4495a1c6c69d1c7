package search

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
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
// best-first permutation field flipped. No writer makes them any more, so they are checked in
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

// bodyScanSeeds are FuzzBodyScan's starting points, checked in under
// testdata/fuzz by name: every kind of gap strings.Fields splits at (tab, CR
// and LF, vertical tab and form feed, U+0085, U+00A0, U+3000, runs), bytes it
// does not split at (invalid UTF-8: a lone continuation byte that would be
// U+0085's second, a truncated U+3000), leading and trailing blanks (after one
// word, whose join is a prefix of the body), a body of blanks only, and the
// empty string.
func bodyScanSeeds() map[string]string {
	return map[string]string{
		"empty":             "",
		"canonical":         "grand hotel lobby",
		"tab":               "grand\thotel",
		"crlf":              "grand hotel\r\nlobby",
		"vt-ff":             "grand\vhotel\flobby",
		"run":               "grand  hotel",
		"nel":               "grand\u0085hotel",
		"nbsp":              "caf\u00e9\u00a0hotel",
		"ideographic-space": "\u6771\u4eac\u3000hotel",
		"invalid-utf8":      "grand\x85hotel \xe3\x80 lobby\xff",
		"leading-blank":     " grand hotel",
		"trailing-blank":    "grand hotel\n",
		"one-word-trailing": "0 ",
		"blanks-only":       " \t\u00a0",
	}
}

// FuzzBodyScan: bodies come out of TIDX streams, so the one pass of
// shardBuilder.add sees arbitrary strings. For any body its words must be
// strings.Fields', with one term-id column entry each, the memo entry of the
// word's own form, and a mark at each markStride-th word holding its byte
// offset in the single-space join; the stored body must be
// strings.Join(words, " "), and the body itself exactly when the body is that
// join. In the one-document index over the body, every window [start, end) of
// up to SnippetWords words, and the whole body, renders exactly
// strings.Join(words[start:end], " ").
func FuzzBodyScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		words := strings.Fields(body)
		join := strings.Join(words, " ")
		sc := fieldScanner{s: body}
		var got []string
		for w := sc.next(); w != ""; w = sc.next() {
			got = append(got, w)
		}
		if !slices.Equal(got, words) {
			t.Fatalf("scan words %q, strings.Fields %q", got, words)
		}
		sb := newShardBuilder()
		sb.add(Document{Body: body})
		if sb.bodyJoined[0] != join {
			t.Fatalf("joined body %q, want %q", sb.bodyJoined[0], join)
		}
		// Stored as the body itself: the same bytes at the same address. (A
		// join of one word is a substring of the body, so it may share a
		// prefix of the body's memory without being the body.)
		itself := body != "" && unsafe.StringData(sb.bodyJoined[0]) == unsafe.StringData(body) && len(sb.bodyJoined[0]) == len(body)
		if itself != (body != "" && body == join) {
			t.Fatalf("body %q is its own join: %v, stored as itself: %v", body, body == join, itself)
		}
		if len(sb.ids) != len(words) || sb.base[1] != len(words) || len(sb.marks) != (len(words)+markStride-1)/markStride {
			t.Fatalf("%d column entries, base %d, %d marks for %d words", len(sb.ids), sb.base[1], len(sb.marks), len(words))
		}
		off := 0
		for i, w := range words {
			if i%markStride == 0 && int(sb.marks[i/markStride]) != off {
				t.Fatalf("word %d %q: mark %d, want offset %d", i, w, sb.marks[i/markStride], off)
			}
			if f, ok := sb.forms[w]; !ok || sb.ids[i] != f.entry {
				t.Fatalf("word %d %q: column entry %d, its form's %v (memoised %v)", i, w, sb.ids[i], f.entry, ok)
			}
			off += len(w) + 1
		}

		ix := buildSharded([]Document{{Body: body}}, 1).shards[0]
		check := func(start, end int) {
			if got, want := ix.text(0, start, end), strings.Join(words[start:end], " "); got != want {
				t.Fatalf("window [%d, %d) of %d words renders %q, want %q", start, end, len(words), got, want)
			}
		}
		for start := range words {
			for end := start + 1; end <= min(start+SnippetWords, len(words)); end++ {
				check(start, end)
			}
		}
		if len(words) > 0 {
			check(0, len(words))
		}
	})
}

// TestBodyScanCorpusCheckedIn: FuzzBodyScan's checked-in corpus is exactly
// what bodyScanSeeds produces.
func TestBodyScanCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBodyScan")
	seeds := bodyScanSeeds()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(seeds) {
		t.Errorf("corpus holds %d files, want %d", len(entries), len(seeds))
	}
	for name, body := range seeds {
		file, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", body); string(file) != want {
			t.Errorf("%s: checked-in corpus file differs from the generated seed", name)
		}
	}
}
