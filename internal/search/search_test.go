package search

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func smallDocs() []Document {
	return []Document{
		{URL: "u1", Title: "Louvre Museum", Body: "the louvre museum in paris hosts a famous art collection with paintings and sculpture galleries"},
		{URL: "u2", Title: "Melisse Restaurant", Body: "melisse is a fine dining restaurant in santa monica with a seasonal tasting menu by the chef"},
		{URL: "u3", Title: "Melisse Records", Body: "melisse is a french contemporary jazz label releasing vinyl records with saxophone quartets"},
		{URL: "u4", Title: "Weather report", Body: "the forecast predicts rainfall and wind with dropping temperature across the region"},
		{URL: "u5", Title: "Ristorante francese", Body: "questo ristorante serve piatti tipici della cucina francese", Lang: "it"},
	}
}

// smallIndex is the five-document corpus on one shard — the monolithic
// engine.
func smallIndex() *ShardedIndex { return buildSharded(smallDocs(), 1) }

func TestSearchRanking(t *testing.T) {
	ix := smallIndex()
	res := ix.Search("louvre museum", 3)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].URL != "u1" {
		t.Errorf("top result = %s, want u1", res[0].URL)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Errorf("results not sorted by score")
		}
	}
}

func TestSearchAmbiguousQueryMixesSenses(t *testing.T) {
	ix := smallIndex()
	res := ix.Search("melisse", 5)
	urls := map[string]bool{}
	for _, r := range res {
		urls[r.URL] = true
	}
	if !urls["u2"] || !urls["u3"] {
		t.Errorf("ambiguous query should surface both senses, got %v", urls)
	}
}

func TestSearchSpatialAugmentationNarrows(t *testing.T) {
	ix := smallIndex()
	res := ix.Search("melisse santa monica", 1)
	if len(res) == 0 || res[0].URL != "u2" {
		t.Errorf("city-augmented query should rank the restaurant first, got %v", res)
	}
}

func TestSearchEnglishOnly(t *testing.T) {
	ix := smallIndex()
	for _, r := range ix.Search("ristorante francese cucina", 10) {
		if r.URL == "u5" {
			t.Errorf("non-English document returned")
		}
	}
}

func TestSearchEmptyAndUnknown(t *testing.T) {
	ix := smallIndex()
	if res := ix.Search("", 5); res != nil {
		t.Errorf("empty query should return nil")
	}
	if res := ix.Search("zzzzqqqq", 5); len(res) != 0 {
		t.Errorf("unknown term should return no results, got %v", res)
	}
	if res := ix.Search("museum", 0); res != nil {
		t.Errorf("k=0 should return nil")
	}
}

// quoteIndex holds the words "chez" and "martin" adjacent in one document
// only; the other two have both words apart.
func quoteIndex() *ShardedIndex {
	return buildSharded([]Document{
		{URL: "p1", Title: "Chez Martin", Body: "chez martin is a dining restaurant with a seasonal menu and chef specials"},
		{URL: "p2", Title: "Martin Chez", Body: "martin chez writes about restaurant kitchens and menu design for chefs"},
		{URL: "p3", Title: "Chez place", Body: "chez nothing here martin appears far away restaurant menu"},
	}, 1)
}

// TestSearchQuotesArePunctuation: a quote, balanced or not, separates terms
// like any other punctuation, so a quoted query returns exactly what its
// unquoted words return.
func TestSearchQuotesArePunctuation(t *testing.T) {
	ix := quoteIndex()
	for _, c := range []struct{ name, quoted, plain string }{
		{"phrase-and-term", `"Chez Martin" restaurant`, "Chez Martin restaurant"},
		{"single-word", `"menu"`, "menu"},
		{"two-phrases", `"chez" "martin restaurant" menu`, "chez martin restaurant menu"},
		{"dangling-quote", `"chez martin`, "chez martin"},
		{"dangling-after-term", `martin "restaurant`, "martin restaurant"},
		{"glued", `chez"menu`, "chez menu"},
		{"empty-quotes", `""`, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := ix.Search(c.plain, 10)
			if c.plain != "" && len(want) == 0 {
				t.Fatalf("Search(%q) matched nothing", c.plain)
			}
			checkBitIdentical(t, c.quoted, ix.Search(c.quoted, 10), want)
		})
	}
}

// TestSearchQuotedWordsNeedNotBeAdjacent: Search is a conjunction of terms;
// quoting two words does not require them to be neighbours.
func TestSearchQuotedWordsNeedNotBeAdjacent(t *testing.T) {
	ix := quoteIndex()
	if res := ix.Search(`"chez martin" restaurant`, 10); len(res) != 3 {
		t.Errorf("quoted query matched %d documents, want all 3", len(res))
	}
	if res := ix.Search(`"martin restaurant"`, 10); len(res) != 3 {
		t.Errorf("non-adjacent quoted words matched %d documents, want all 3", len(res))
	}
	if res := ix.Search(`"zzz yyy"`, 10); len(res) != 0 {
		t.Errorf("unknown quoted words matched: %v", res)
	}
}

// TestSearchStemsQuotedWords: words inside quotes are stemmed like the rest.
func TestSearchStemsQuotedWords(t *testing.T) {
	ix := buildSharded([]Document{{URL: "p1", Title: "x", Body: "national museums collection hosts paintings"}}, 1)
	if res := ix.Search(`"national museum"`, 5); len(res) != 1 {
		t.Errorf("stemmed quoted query matched %d documents, want 1", len(res))
	}
}

// TestSearchQuotedRespectsK: a quoted query over twenty equal documents
// returns k of them.
func TestSearchQuotedRespectsK(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 20; i++ {
		b.Add(Document{URL: fmt.Sprint(i), Title: "x", Body: "grand hotel lobby with rooms and suites"})
	}
	if res := b.Freeze().Search(`"grand hotel"`, 3); len(res) != 3 {
		t.Errorf("k ignored: %d results", len(res))
	}
}

func TestSnippetContainsQueryContext(t *testing.T) {
	ix := smallIndex()
	res := ix.Search("tasting menu", 1)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if !strings.Contains(res[0].Snippet, "tasting") && !strings.Contains(res[0].Snippet, "menu") {
		t.Errorf("snippet %q lacks query context", res[0].Snippet)
	}
	words := strings.Fields(res[0].Snippet)
	if len(words) > SnippetWords {
		t.Errorf("snippet has %d words, want <= %d", len(words), SnippetWords)
	}
}

// TestSearchTopKBound: the engine never returns more than k results, for any
// k and corpus size.
func TestSearchTopKBound(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 40; i++ {
		b.Add(Document{URL: fmt.Sprint(i), Title: "museum", Body: "museum gallery art"})
	}
	ix := b.Freeze()
	f := func(k uint8) bool {
		res := ix.Search("museum", int(k%20))
		return len(res) <= int(k%20)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 10; i++ {
		b.Add(Document{URL: fmt.Sprint(i), Title: "hotel", Body: "hotel rooms suites"})
	}
	ix := b.Freeze()
	r1 := ix.Search("hotel", 5)
	r2 := ix.Search("hotel", 5)
	for i := range r1 {
		if r1[i].URL != r2[i].URL {
			t.Fatalf("tie-break not deterministic at %d", i)
		}
	}
}

func TestEngineCounters(t *testing.T) {
	e := NewShardedEngine(smallIndex())
	e.Search("museum", 3)
	e.Search("restaurant", 3)
	if n := e.Stats().Queries; n != 2 {
		t.Errorf("Queries = %d, want 2", n)
	}
	e.ResetCounters()
	if e.Stats().Queries != 0 {
		t.Errorf("counters not reset")
	}
}

func TestEngineRealSleep(t *testing.T) {
	e := NewShardedEngine(smallIndex())
	e.Latency = 10 * time.Millisecond
	start := time.Now()
	e.Search("museum", 1)
	if took := time.Since(start); took < 10*time.Millisecond {
		t.Errorf("search at 10ms latency returned in %v, want >= 10ms", took)
	}
}

func TestEngineConcurrentAccess(t *testing.T) {
	e := NewShardedEngine(smallIndex())
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				e.Search("museum restaurant", 3)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if n := e.Stats().Queries; n != 400 {
		t.Errorf("Queries = %d, want 400", n)
	}
}
