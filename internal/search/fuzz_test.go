package search

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzSplitPhrases checks the quoted-segment splitter on arbitrary input:
// it must never panic, never leak a '"' into the phrases or the remainder
// (a dangling unbalanced quote is dropped), never produce empty phrases,
// and be deterministic.
func FuzzSplitPhrases(f *testing.F) {
	for _, seed := range []string{
		`"Chez Martin" restaurant`,
		`melisse`,
		`"a" "b c" d`,
		`"unterminated phrase`,
		`""`,
		`"""`,
		`""""`,
		`a"b"c"d`,
		` " spaced " phrase " `,
		`"nested ""quotes"" here"`,
		"\"\x00\" weird",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		phrases, remainder := splitPhrases(query)
		if strings.ContainsRune(remainder, '"') {
			t.Fatalf("remainder %q leaks a quote (query %q)", remainder, query)
		}
		for _, p := range phrases {
			if p == "" {
				t.Fatalf("empty phrase extracted from %q", query)
			}
			if strings.ContainsRune(p, '"') {
				t.Fatalf("phrase %q contains a quote (query %q)", p, query)
			}
			if p != strings.TrimSpace(p) {
				t.Fatalf("phrase %q not trimmed (query %q)", p, query)
			}
		}
		p2, r2 := splitPhrases(query)
		if !reflect.DeepEqual(phrases, p2) || remainder != r2 {
			t.Fatalf("splitPhrases(%q) not deterministic", query)
		}
	})
}

// FuzzSearchPhrase drives the full phrase-query path with arbitrary query
// strings over a fixed small index: no input may panic it or return more
// than k results.
func FuzzSearchPhrase(f *testing.F) {
	for _, seed := range []string{
		`"chez martin" restaurant`,
		`"melisse"`,
		`"the of and"`,
		`"`,
		`"" "" ""`,
		"plain terms only",
		`"a b`,
	} {
		f.Add(seed)
	}
	ix := NewShardedIndex(1)
	ix.Add(Document{URL: "p1", Title: "Chez Martin", Body: "chez martin is a dining restaurant with a seasonal menu"})
	ix.Add(Document{URL: "p2", Title: "Melisse", Body: "melisse is a fine dining restaurant in santa monica"})
	ix.Add(Document{URL: "p3", Title: "Ailleurs", Body: "un restaurant qui ne parle pas anglais", Lang: "fr"})
	ix.Freeze()
	f.Fuzz(func(t *testing.T, query string) {
		const k = 3
		if res := ix.SearchPhrase(query, k); len(res) > k {
			t.Fatalf("SearchPhrase(%q, %d) returned %d results", query, k, len(res))
		}
	})
}

// FuzzShardedSearchEquivalence drives the sharded and monolithic engines
// with arbitrary query strings over one corpus: every query — term or
// phrase — must produce identical results (order, bytes and score bits) at
// every shard count.
func FuzzShardedSearchEquivalence(f *testing.F) {
	for _, seed := range []string{
		`melisse restaurant`,
		`"chez martin" restaurant`,
		`"the of and"`,
		`"`,
		"",
		"santa monica museum gallery",
	} {
		f.Add(seed)
	}
	docs := []Document{
		{URL: "s1", Title: "Chez Martin", Body: "chez martin is a dining restaurant with a seasonal menu"},
		{URL: "s2", Title: "Melisse", Body: "melisse is a fine dining restaurant in santa monica"},
		{URL: "s3", Title: "Louvre Museum", Body: "the louvre museum in paris hosts a famous art collection"},
		{URL: "s4", Title: "Harbor Gallery", Body: "the harbor gallery shows paintings sculpture and a museum shop"},
		{URL: "s5", Title: "Ailleurs", Body: "un restaurant qui ne parle pas anglais", Lang: "fr"},
		{URL: "s6", Title: "Melisse", Body: "melisse is a fine dining restaurant in santa monica"}, // duplicate: ties
	}
	ix := NewShardedIndex(1)
	for _, d := range docs {
		ix.Add(d)
	}
	ix.Freeze()
	sharded := []*ShardedIndex{buildSharded(docs, 2), buildSharded(docs, 3), buildSharded(docs, 5)}
	f.Fuzz(func(t *testing.T, query string) {
		const k = 4
		wantTerm := ix.Search(query, k)
		wantPhrase := ix.SearchPhrase(query, k)
		for _, six := range sharded {
			got := six.Search(query, k)
			if len(got) != len(wantTerm) {
				t.Fatalf("shards=%d Search(%q): %d results, monolithic %d", six.NumShards(), query, len(got), len(wantTerm))
			}
			for i := range got {
				if got[i] != wantTerm[i] {
					t.Fatalf("shards=%d Search(%q) result %d: %+v vs %+v", six.NumShards(), query, i, got[i], wantTerm[i])
				}
			}
			gotP := six.SearchPhrase(query, k)
			if len(gotP) != len(wantPhrase) {
				t.Fatalf("shards=%d SearchPhrase(%q): %d results, monolithic %d", six.NumShards(), query, len(gotP), len(wantPhrase))
			}
			for i := range gotP {
				if gotP[i] != wantPhrase[i] {
					t.Fatalf("shards=%d SearchPhrase(%q) result %d: %+v vs %+v", six.NumShards(), query, i, gotP[i], wantPhrase[i])
				}
			}
		}
	})
}
