package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// checkTerms asserts that every result's Terms decode, through six's
// vocabulary and with the token-less words skipped, to exactly the tokens
// textproc derives from the snippet text, and that Terms is nil exactly when
// the hit — a document of docs, found by URL — has no body to take a window
// from. The exhaustive suite comes through here millions of times: label is
// only called, and the helper only marked, on failure.
func checkTerms(t *testing.T, label func() string, six *ShardedIndex, docs []Document, results []Result) {
	vocab := six.Vocab()
	var got []string // reused across results
	for i, r := range results {
		var body string
		for _, d := range docs {
			if d.URL == r.URL {
				body = d.Body
			}
		}
		if noBody := strings.TrimSpace(body) == ""; noBody || r.Terms == nil {
			if !noBody || r.Terms != nil || r.Snippet != r.Title {
				t.Helper()
				t.Fatalf("%s result %d: body %q gives Terms %v, snippet %q", label(), i, body, r.Terms, r.Snippet)
			}
			continue
		}
		got = got[:0]
		for _, id := range r.Terms {
			if id >= 0 {
				got = append(got, vocab[id])
			}
		}
		if want := normTokens(r.Snippet); !slices.Equal(got, want) {
			t.Helper()
			t.Fatalf("%s result %d: Terms %v decode to %q, snippet %q normalises to %q", label(), i, r.Terms, got, r.Snippet, want)
		}
	}
}

// adversarialCorpus is the hand-made half of TestTermsMatchExtract: every way
// a raw word and its tokens can disagree, and every place a window can sit.
func adversarialCorpus() []Document {
	long := func(first, last string) string {
		words := []string{first}
		for i := 0; i < 30; i++ {
			words = append(words, []string{"of", "gallery", "12", "the", "paintings"}[i%5])
		}
		return strings.Join(append(words, last), " ")
	}
	return []Document{
		{URL: "hyphen", Title: "Hyphen", Body: "a rock-n-roll jazz-club with state-of-the-art sound and a bed/breakfast annexe museum/gallery"},
		{URL: "apostrophe", Title: "Apostrophe", Body: "martin's l'atelier 'quoted' museum's o'clock ''' chez martin"},
		{URL: "stopwords", Title: "Stop words", Body: "the of and a in the of and a in the of and a in museum"},
		{URL: "only-stopwords", Title: "museum", Body: "the of and a in"},
		{URL: "numeric", Title: "Numbers", Body: "12 3.5 2,000 1-2 museum 1990s 4th 7 - -- 3.5.1"},
		{URL: "title-only", Title: "museum gallery title", Body: ""},
		{URL: "blank-body", Title: "museum of blanks", Body: " \t\n "},
		{URL: "short", Title: "Short", Body: "museum"},
		{URL: "short-hyphen", Title: "Short hyphen", Body: "art-gallery"},
		{URL: "anchor-first", Title: "First", Body: long("louvre", "the")},
		{URL: "anchor-last", Title: "Last", Body: long("the", "melisse")},
		{URL: "anchor-last-multi", Title: "Last multi", Body: long("a", "uffizi-prado")},
		{URL: "whitespace", Title: "Spacing", Body: "  museum   gallery\tpaintings \n rock-n-roll  "},
		{URL: "punctuation", Title: "Punct", Body: "museum, (gallery) — paintings... & . restaurant!"},
		{URL: "unicode", Title: "Unicode", Body: "musée café Ünïcode-wörd naïve museum"},
		{URL: "french", Title: "museum ailleurs", Body: "un museum-gallery qui ne parle pas", Lang: "fr"},
	}
}

// TestTermsMatchExtract is the search half of the id-path differential: on
// randomized corpora and on the adversarial one, at every shard count, freshly
// frozen and loaded from bytes, through Search and SearchBatch,
// a hit's Terms are its snippet's normalised tokens, and they are the same ids
// whatever the shard count and however the index came to be.
func TestTermsMatchExtract(t *testing.T) {
	corpora := map[string][]Document{"adversarial": adversarialCorpus()}
	for seed := int64(1); seed <= 4; seed++ {
		corpora[fmt.Sprint("random-", seed)] = randomCorpus(rand.New(rand.NewSource(seed)), 80)
	}
	queries := append(randomQueries(rand.New(rand.NewSource(9)), 60),
		"museum", "gallery", "rock-n-roll", "uffizi-prado", "uffizi", "louvre", "melisse", "title",
		"blanks", "art-gallery", "breakfast", `"rock n roll"`, `"chez martin"`, "quoted", "café", "wörd", "12", "the")
	for name, docs := range corpora {
		var want [][]Result
		for _, shards := range []int{1, 2, 3, 5} {
			fresh := buildSharded(docs, shards)
			loaded, err := ReadShardedIndex(tidx(t, fresh))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loaded.Vocab(), fresh.Vocab()) {
				t.Fatalf("%s x%d: loaded vocabulary differs from the built one", name, shards)
			}
			for which, six := range []*ShardedIndex{fresh, loaded} {
				label := fmt.Sprintf("%s x%d %s", name, shards, [2]string{"fresh", "loaded"}[which])
				var got [][]Result
				for _, q := range queries {
					got = append(got, six.Search(q, 10))
				}
				got = append(got, six.SearchBatch(queries, 10)...)
				for i, results := range got {
					checkTerms(t, func() string { return fmt.Sprintf("%s list %d", label, i) }, six, docs, results)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: results (Terms included) differ from the one-shard fresh index", label)
				}
			}
		}
	}
}

// TestTermWindowIsClipped: a consumer appending to Terms must not write into
// the index's column.
func TestTermWindowIsClipped(t *testing.T) {
	six := smallIndex()
	res := six.Search("louvre", 1)
	if len(res) != 1 || res[0].Terms == nil {
		t.Fatalf("results: %+v", res)
	}
	if terms := res[0].Terms; cap(terms) != len(terms) {
		t.Errorf("Terms has spare capacity %d over length %d: an append would write index memory", cap(terms), len(terms))
	}
}

// TestSnippetAnchor pins where a hit's snippet anchors — the first body word
// that is, whole, one of the query's terms — on hand-picked bodies, checking
// each snippet literally and against refSearch, and its Terms against the
// snippet's tokens, at one and two shards.
func TestSnippetAnchor(t *testing.T) {
	greek := strings.Fields("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda " +
		"mu nu xi omicron pi rho sigma tau upsilon phi chi psi omega")
	// body is the first n greek words with word i replaced by w for each
	// (i, w) of at.
	body := func(n int, at map[int]string) string {
		words := slices.Clone(greek[:n])
		for i, w := range at {
			words[i] = w
		}
		return strings.Join(words, " ")
	}
	// window is words [start, end) of b.
	window := func(b string, start, end int) string {
		return strings.Join(strings.Fields(b)[start:end], " ")
	}
	for _, c := range []struct {
		name, title, body, query string
		start, end               int // the snippet's words
	}{
		// jazz-club normalises to two tokens: it matches the query, but it is
		// no content word, so the window leads.
		{"term only inside a hyphenated word", "Club", body(16, map[int]string{8: "jazz-club"}), "jazz", 0, 11},
		{"hyphenated before a plain occurrence", "Club", body(22, map[int]string{4: "jazz-club", 12: "jazz"}), "jazz", 9, 20},
		{"earliest of several query terms", "Gallery", body(24, map[int]string{9: "gallery", 14: "museum"}), "museum gallery", 6, 17},
		{"hit on the last word", "End", body(20, map[int]string{19: "museum"}), "museum", 9, 20},
		{"title-only hit", "Museum", body(15, nil), "museum", 0, 11},
	} {
		docs := []Document{
			{URL: "hit", Title: c.title, Body: c.body},
			{URL: "other", Title: "Other", Body: "unrelated words only"},
		}
		want := window(c.body, c.start, c.end)
		for _, shards := range []int{1, 2} {
			label := fmt.Sprintf("%s x%d", c.name, shards)
			six := buildSharded(docs, shards)
			got := six.Search(c.query, 1)
			if len(got) != 1 || got[0].Snippet != want {
				t.Fatalf("%s: Search(%q) = %+v, want snippet %q", label, c.query, got, want)
			}
			checkSameResults(t, label, got, refSearch(docs, c.query, 1))
			checkTerms(t, func() string { return label }, six, docs, got)
		}
	}
}
