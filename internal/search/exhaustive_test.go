package search

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestExhaustiveSmallScope checks the built index over a complete small space
// instead of a random sample of a large one, and is the one pass over it:
// every corpus of eachSmallCorpus, at 1, 2 and 3 shards. For each, the fresh
// index's columns — each section best-first, the term-id column included —
// must equal the reference's maps (checkColumnsRoundTrip, which orders the
// expected sections by a comparison sort), and the index loaded from its
// persisted bytes must persist to the same bytes and equal the fresh one field
// for field (sameIndex, which compares everything the round trip reads; so
// the loaded index equals the reference too). A loaded index is a Build over
// the same documents, so the query sweep runs on the fresh index only: Search
// must equal refSearch, and every hit's Terms must decode to its snippet's
// normalised tokens. The labels are only put together on failure: the scope
// comes through here a few hundred thousand times.
func TestExhaustiveSmallScope(t *testing.T) {
	// Quotes are punctuation to Search: the quoted queries rank as their
	// terms do.
	queries := []string{
		"museum", "paintings museum the",
		`"museum paintings"`, `"paintings museum" museum`, `"museum museum"`,
	}
	ks := []int{1, 3}

	// checkSameResults without the label and t.Helper: the hot comparison.
	same := func(got, want []Result) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].URL != want[i].URL || got[i].Snippet != want[i].Snippet || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				return false
			}
		}
		return true
	}
	check := func(t *testing.T, docs []Document) {
		// refSearch over one refCorpus: the corpus is tokenised once.
		want := make([][]Result, len(queries)*len(ks))
		if len(docs) > 0 {
			rc := newRefCorpus(docs)
			for qi, q := range queries {
				for ki, k := range ks {
					want[qi*len(ks)+ki] = rc.search(q, k)
				}
			}
		}
		for shards := 1; shards <= 3; shards++ {
			label := func() string { return fmt.Sprint(docs, " x", shards) }
			fresh := buildSharded(docs, shards)
			data := tidx(t, fresh)
			loaded, err := ReadShardedIndex(data)
			if err != nil {
				t.Fatalf("%s: persisted index rejected: %v", label(), err)
			}
			if !bytes.Equal(tidx(t, loaded), data) {
				t.Fatalf("%s: loaded index persists to different bytes", label())
			}
			checkColumnsRoundTrip(t, label, newRefIndex(docs, shards), fresh)
			if !sameIndex(loaded, fresh) {
				t.Fatalf("%s: loaded index differs from the fresh one", label())
			}
			for qi, q := range queries {
				for ki, k := range ks {
					got := fresh.Search(q, k)
					if !same(got, want[qi*len(ks)+ki]) {
						checkSameResults(t, fmt.Sprintf("%s Search(%q, %d)", label(), q, k), got, want[qi*len(ks)+ki])
					}
					checkTerms(t, label, fresh, docs, got)
				}
			}
		}
	}

	eachSmallCorpus(t, check)
}

// eachSmallCorpus calls check once on every corpus of the small scope: at
// most 3 documents (2 under -short or -race) whose bodies are at most 3 words
// over a 3-word vocabulary (one of them a stopword, one stemming to something
// other than itself), all English or with one document non-English. The
// empty corpus is checked first; the rest are parallel subtests, by the first
// document's body and then by language: first=<body>/en holds the all-English
// corpora, first=<body>/fr each of them with its second document (the only
// one, of one) non-English — in a three-document shard that puts English
// postings on both sides of it, at two shards it has a shard to itself.
func eachSmallCorpus(t *testing.T, check func(t *testing.T, docs []Document)) {
	vocab := []string{"museum", "paintings", "the"}
	maxDocs := 3
	if testing.Short() || raceEnabled {
		maxDocs = 2
	}
	bodies := []string{""}
	for lo, n := 0, 0; n < 3; n++ {
		hi := len(bodies)
		for _, b := range bodies[lo:hi] {
			for _, w := range vocab {
				bodies = append(bodies, strings.TrimSpace(b+" "+w))
			}
		}
		lo = hi
	}

	// Enumerate the English corpora depth-first, checking each or its
	// non-English variant.
	var extend func(t *testing.T, docs []Document, fr bool)
	extend = func(t *testing.T, docs []Document, fr bool) {
		if fr {
			variant := append([]Document(nil), docs...)
			variant[min(1, len(docs)-1)].Lang = "fr"
			check(t, variant)
		} else {
			check(t, docs)
		}
		if len(docs) == maxDocs {
			return
		}
		for _, body := range bodies {
			d := Document{URL: fmt.Sprint("u", len(docs)), Body: body}
			extend(t, append(docs[:len(docs):len(docs)], d), fr)
		}
	}
	check(t, nil)
	for _, body := range bodies {
		// The first document's title is the scope's one title-only term
		// source.
		first := Document{URL: "u0", Title: "paintings", Body: body}
		t.Run(fmt.Sprintf("first=%q", body), func(t *testing.T) {
			t.Parallel()
			for _, lang := range []string{"en", "fr"} {
				t.Run(lang, func(t *testing.T) {
					t.Parallel()
					extend(t, []Document{first}, lang == "fr")
				})
			}
		})
	}
}
