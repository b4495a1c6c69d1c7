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
	e.Latency = 50 * time.Millisecond
	e.Search("museum", 3)
	e.Search("restaurant", 3)
	if e.QueryCount() != 2 {
		t.Errorf("QueryCount = %d, want 2", e.QueryCount())
	}
	if e.SimulatedTime() != 100*time.Millisecond {
		t.Errorf("SimulatedTime = %v, want 100ms", e.SimulatedTime())
	}
	e.ResetCounters()
	if e.QueryCount() != 0 || e.SimulatedTime() != 0 {
		t.Errorf("counters not reset")
	}
}

func TestEngineRealSleep(t *testing.T) {
	e := NewShardedEngine(smallIndex())
	e.Latency = 10 * time.Millisecond
	e.RealSleep = true
	start := time.Now()
	e.Search("museum", 1)
	if took := time.Since(start); took < 10*time.Millisecond {
		t.Errorf("RealSleep search returned in %v, want >= 10ms", took)
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
	if e.QueryCount() != 400 {
		t.Errorf("QueryCount = %d, want 400", e.QueryCount())
	}
}
