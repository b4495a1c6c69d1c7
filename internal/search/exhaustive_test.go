package search

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestExhaustiveSmallScope checks the frozen index over a complete small
// space instead of a random sample of a large one: every corpus of at most 3
// documents whose bodies are at most 3 words over a 3-word vocabulary (one of
// them a stopword, one stemming to something other than itself), all English
// or with one document non-English, at 1, 2 and 3 shards. For each, the
// columns — the term-id column included — must equal the builder's
// maps, both on the freshly frozen index and on one loaded from its persisted
// bytes, which must in turn persist to the same bytes. A loaded index is a
// Freeze over the same documents, so the query sweep runs on the fresh index
// only: Search must equal refSearch, and every hit's Terms must decode to its
// snippet's normalised tokens.
func TestExhaustiveSmallScope(t *testing.T) {
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
		corpus := fmt.Sprint(docs)
		want := make([][]Result, 0, len(queries)*len(ks))
		for _, q := range queries {
			for _, k := range ks {
				want = append(want, refSearch(docs, q, k))
			}
		}
		for shards := 1; shards <= 3; shards++ {
			b := NewBuilder(shards)
			for _, d := range docs {
				b.Add(d)
			}
			fresh := b.Freeze()
			data := tidx(t, fresh)
			loaded, err := ReadShardedIndex(data)
			if err != nil {
				t.Fatalf("%s x%d: persisted index rejected: %v", corpus, shards, err)
			}
			if !bytes.Equal(tidx(t, loaded), data) {
				t.Fatalf("%s x%d: loaded index persists to different bytes", corpus, shards)
			}
			ref := newRefIndex(docs, shards)
			label := corpus + " x" + strconv.Itoa(shards)
			checkColumnsRoundTrip(t, label+" loaded", ref, loaded)
			checkColumnsRoundTrip(t, label, ref, fresh)
			for qi, q := range queries {
				for ki, k := range ks {
					got := fresh.Search(q, k)
					if !same(got, want[qi*len(ks)+ki]) {
						checkSameResults(t, fmt.Sprintf("%s Search(%q, %d)", label, q, k), got, want[qi*len(ks)+ki])
					}
					checkTerms(t, label, fresh, docs, got)
				}
			}
		}
	}

	// Enumerate corpora depth-first; the first document's body partitions the
	// space into parallel subtests.
	var extend func(t *testing.T, docs []Document)
	extend = func(t *testing.T, docs []Document) {
		// The second document (the only one, of one) is the one that may be
		// non-English: in a three-document shard that puts English postings on
		// both sides of it, at two shards it has a shard to itself.
		check(t, docs)
		variant := append([]Document(nil), docs...)
		variant[min(1, len(docs)-1)].Lang = "fr"
		check(t, variant)
		if len(docs) == maxDocs {
			return
		}
		for _, body := range bodies {
			d := Document{URL: fmt.Sprint("u", len(docs)), Body: body}
			if len(docs) == 0 {
				d.Title = "paintings" // one title-only term source
			}
			extend(t, append(docs[:len(docs):len(docs)], d))
		}
	}
	check(t, nil)
	for _, body := range bodies {
		first := Document{URL: "u0", Title: "paintings", Body: body}
		t.Run(fmt.Sprintf("first=%q", body), func(t *testing.T) {
			t.Parallel()
			extend(t, []Document{first})
		})
	}
}
