package search

import (
	"reflect"
	"testing"
)

func TestSplitPhrases(t *testing.T) {
	cases := []struct {
		in        string
		phrases   []string
		remainder string
	}{
		{`"Chez Martin" restaurant`, []string{"Chez Martin"}, "restaurant"},
		{`melisse`, nil, "melisse"},
		{`"a" "b c" d`, []string{"a", "b c"}, "d"},
		// A dangling quote becomes a space rather than leaking into the
		// remainder; the text around it ranks as plain terms.
		{`"unterminated phrase`, nil, `unterminated phrase`},
		{`melisse "restaurant`, nil, `melisse  restaurant`},
		{`museum"gallery`, nil, `museum gallery`},
		{`""`, nil, ""},
	}
	for _, c := range cases {
		phrases, remainder := splitPhrases(c.in)
		if !reflect.DeepEqual(phrases, c.phrases) || remainder != c.remainder {
			t.Errorf("splitPhrases(%q) = %v, %q; want %v, %q",
				c.in, phrases, remainder, c.phrases, c.remainder)
		}
	}
}

func phraseIndex() *ShardedIndex {
	return buildSharded([]Document{
		{URL: "p1", Title: "Chez Martin", Body: "chez martin is a dining restaurant with a seasonal menu and chef specials"},
		{URL: "p2", Title: "Martin Chez", Body: "martin chez writes about restaurant kitchens and menu design for chefs"},
		{URL: "p3", Title: "Chez place", Body: "chez nothing here martin appears far away restaurant menu"},
	}, 1)
}

func TestSearchPhraseRequiresAdjacency(t *testing.T) {
	ix := phraseIndex()
	res := ix.SearchPhrase(`"chez martin" restaurant`, 10)
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1 (only p1 has the adjacent phrase)", len(res))
	}
	if res[0].URL != "p1" {
		t.Errorf("got %s, want p1", res[0].URL)
	}
}

func TestSearchPhraseFallsBackWithoutQuotes(t *testing.T) {
	ix := phraseIndex()
	plain := ix.Search("chez martin restaurant", 10)
	viaPhrase := ix.SearchPhrase("chez martin restaurant", 10)
	if len(plain) != len(viaPhrase) {
		t.Fatalf("unquoted SearchPhrase diverges from Search: %d vs %d", len(viaPhrase), len(plain))
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i], viaPhrase[i]) {
			t.Errorf("result %d differs", i)
		}
	}
}

func TestSearchPhraseStemsInsidePhrase(t *testing.T) {
	ix := buildSharded([]Document{{URL: "p1", Title: "x", Body: "national museums collection hosts paintings"}}, 1)
	res := ix.SearchPhrase(`"national museum"`, 5)
	if len(res) != 1 {
		t.Errorf("stemmed phrase match failed: %d results", len(res))
	}
}

func TestSearchPhraseNoMatch(t *testing.T) {
	ix := phraseIndex()
	if res := ix.SearchPhrase(`"martin restaurant"`, 5); len(res) != 0 {
		t.Errorf("non-adjacent phrase matched: %v", res)
	}
	if res := ix.SearchPhrase(`"zzz yyy"`, 5); len(res) != 0 {
		t.Errorf("unknown phrase matched: %v", res)
	}
}

func TestSearchPhraseRespectsK(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 20; i++ {
		b.Add(Document{URL: string(rune('a' + i)), Title: "x", Body: "grand hotel lobby with rooms and suites"})
	}
	ix := b.Freeze()
	if res := ix.SearchPhrase(`"grand hotel"`, 3); len(res) != 3 {
		t.Errorf("k ignored: %d results", len(res))
	}
}
