package search

// Tests of the columnar compiler itself (columnar.go): the flat CSR form must
// be a lossless round-trip of the postings/normK state it was compiled from,
// and the batch kernel built on it must stay bit-identical to the monolithic
// reference at every shard count × batch size the serving layer uses.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// checkColumnsRoundTrip asserts ix.col is an exact compilation of ix's
// postings, idf, normK and positions state.
func checkColumnsRoundTrip(t *testing.T, label string, ix *Index) {
	t.Helper()
	c := ix.col
	if c == nil {
		t.Fatalf("%s: frozen index has no columns", label)
	}

	// Term dictionary: a bijection onto the postings keys, in sorted order.
	if len(c.terms) != len(ix.postings) || len(c.termID) != len(ix.postings) {
		t.Fatalf("%s: %d column terms / %d ids for %d postings terms",
			label, len(c.terms), len(c.termID), len(ix.postings))
	}
	if !sort.StringsAreSorted(c.terms) {
		t.Errorf("%s: column terms are not sorted", label)
	}
	for id, term := range c.terms {
		if got, ok := c.termID[term]; !ok || got != int32(id) {
			t.Errorf("%s: termID[%q] = %d,%v, want %d", label, term, got, ok, id)
		}
	}

	for term, want := range ix.postings {
		tid := c.termID[term]

		// CSR round-trip: merging the English and non-English sections back
		// into doc order must reproduce the exact posting list.
		if got := c.postingsOf(term); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: postingsOf(%q) = %v, want %v", label, term, got, want)
		}

		// The split itself must follow the language flags, and every stored
		// contribution must be the bitwise-identical float the scalar loop
		// would have computed from idf/tf/normK.
		idf := ix.idf[term]
		e, o := c.engOff[tid], c.othOff[tid]
		for _, p := range want {
			if ix.english[p.doc] {
				if int(c.engDoc[e]) != p.doc || int(c.engTF[e]) != p.tf {
					t.Fatalf("%s: %q eng posting %d = (%d,%d), want (%d,%d)",
						label, term, e, c.engDoc[e], c.engTF[e], p.doc, p.tf)
				}
				tf := float64(p.tf)
				if want := idf * tf * (bm25K1 + 1) / (tf + ix.normK[p.doc]); c.engContrib[e] != want {
					t.Fatalf("%s: %q contrib for doc %d = %v, want exactly %v",
						label, term, p.doc, c.engContrib[e], want)
				}
				e++
			} else {
				if int(c.othDoc[o]) != p.doc || int(c.othTF[o]) != p.tf {
					t.Fatalf("%s: %q oth posting %d = (%d,%d), want (%d,%d)",
						label, term, o, c.othDoc[o], c.othTF[o], p.doc, p.tf)
				}
				o++
			}
		}
		if e != c.engOff[tid+1] || o != c.othOff[tid+1] {
			t.Fatalf("%s: %q section lengths eng %d/%d oth %d/%d",
				label, term, e, c.engOff[tid+1], o, c.othOff[tid+1])
		}

		// ordAll: a permutation of the term's English section sorted by the
		// one-term top-k order (contribution desc, doc asc).
		lo, hi := c.engOff[tid], c.engOff[tid+1]
		ord := c.ordAll[lo:hi]
		seen := make([]bool, hi-lo)
		for i, e := range ord {
			if e < 0 || int(e) >= len(seen) || seen[e] {
				t.Fatalf("%s: %q ordAll is not a permutation at %d", label, term, i)
			}
			seen[e] = true
			if i > 0 {
				prev, cur := ord[i-1], e
				if c.engContrib[lo+prev] < c.engContrib[lo+cur] ||
					(c.engContrib[lo+prev] == c.engContrib[lo+cur] && c.engDoc[lo+prev] > c.engDoc[lo+cur]) {
					t.Fatalf("%s: %q ordAll out of order at %d", label, term, i)
				}
			}
		}

		// Dense sidecars exist exactly for big terms and scatter the same
		// contribution / first-position values the sparse forms hold.
		big := int(hi-lo) >= bigTermDF
		if (c.contribDense[tid] != nil) != big || (c.firstPos[tid] != nil) != big {
			t.Fatalf("%s: %q dense sidecars present=%v/%v, want %v (df %d)",
				label, term, c.contribDense[tid] != nil, c.firstPos[tid] != nil, big, hi-lo)
		}
		if big {
			dense := make([]float64, len(ix.docs))
			for i := lo; i < hi; i++ {
				dense[c.engDoc[i]] = c.engContrib[i]
			}
			if !reflect.DeepEqual(c.contribDense[tid], dense) {
				t.Fatalf("%s: %q contribDense does not match scattered contribs", label, term)
			}
			fp := make([]int32, len(ix.docs))
			for _, pp := range ix.positions[term] {
				fp[pp.doc] = pp.pos[0] + 1
			}
			if !reflect.DeepEqual(c.firstPos[tid], fp) {
				t.Fatalf("%s: %q firstPos does not match positional postings", label, term)
			}
		}
	}
}

// TestColumnarRoundTripProperty: on randomized corpora, Freeze compiles
// columns that round-trip to the exact postings/normK state — and adding a
// document un-freezes, after which the next freeze rebuilds the columns for
// the grown state rather than serving stale ones.
func TestColumnarRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			docs := randomCorpus(rng, 20+rng.Intn(150))
			split := len(docs) * 2 / 3
			six := NewShardedIndex(1)
			ix := six.shards[0]
			for _, d := range docs[:split] {
				six.Add(d)
			}
			six.Freeze()
			checkColumnsRoundTrip(t, "first freeze", ix)

			// Un-freeze by growing the corpus; a query must re-freeze on
			// demand and the rebuilt columns must reflect the new postings.
			old := ix.col
			for _, d := range docs[split:] {
				six.Add(d)
			}
			if six.frozen.Load() {
				t.Fatal("Add left the index frozen")
			}
			six.Search("museum restaurant", 3)
			if !six.frozen.Load() {
				t.Fatal("query did not re-freeze the index")
			}
			if ix.col == old {
				t.Fatal("re-freeze served the stale columns")
			}
			checkColumnsRoundTrip(t, "re-freeze after re-add", ix)
		})
	}

	// A corpus past the bigTermDF threshold, so the dense contribution and
	// first-position sidecars (nil on the small seeds above) round-trip too.
	t.Run("big-terms", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		six := NewShardedIndex(1)
		for _, d := range randomCorpus(rng, bigTermDF*4) {
			six.Add(d)
		}
		six.Freeze()
		ix := six.shards[0]
		big := 0
		for tid := range ix.col.terms {
			if ix.col.contribDense[tid] != nil {
				big++
			}
		}
		if big == 0 {
			t.Fatal("no term crossed bigTermDF; the corpus no longer exercises the dense sidecars")
		}
		checkColumnsRoundTrip(t, "big-term corpus", ix)
	})
}

// TestKernelVsReferenceMatrix is the CI differential matrix: the columnar
// batch kernel at shard counts {1,4,16} × batch sizes {1,32} against both the
// monolithic single-query path (bit-identical) and the slow reference
// implementation (1e-9). CI runs exactly this test by name.
func TestKernelVsReferenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	docs := randomCorpus(rng, 160)
	ix := NewShardedIndex(1)
	for _, d := range docs {
		ix.Add(d)
	}
	ix.Freeze()
	queries := randomQueries(rng, 48)
	// Mix in the edge shapes the batch path special-cases: empty and
	// unknown-term queries (nil results) and within-batch duplicates.
	queries = append(queries, "", "zzzzqqqq", queries[0], queries[1])
	const k = 10
	want := make([][]Result, len(queries))
	for i, q := range queries {
		want[i] = ix.Search(q, k)
	}
	for _, shards := range []int{1, 4, 16} {
		six := buildSharded(docs, shards)
		for _, batch := range []int{1, 32} {
			got := make([][]Result, 0, len(queries))
			for lo := 0; lo < len(queries); lo += min(batch, len(queries)-lo) {
				got = append(got, six.SearchBatch(queries[lo:min(lo+batch, len(queries))], k)...)
			}
			for i, q := range queries {
				label := fmt.Sprintf("shards=%d batch=%d SearchBatch[%d](%q, %d)", shards, batch, i, q, k)
				checkBitIdentical(t, label, got[i], want[i])
				checkSameResults(t, label+" vs reference", got[i], refSearch(docs, q, k))
			}
		}
	}
}

// TestKernelVsReferenceMatrixBigTerms repeats the matrix over a corpus large
// enough that common terms cross bigTermDF, routing queries through the
// sparse big-final-term selection the small matrix corpus never reaches. The
// full query set is checked bit-identical against the monolithic path at
// every cell; the (slow) reference implementation corroborates a sample.
func TestKernelVsReferenceMatrixBigTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	docs := randomCorpus(rng, bigTermDF*4)
	ix := NewShardedIndex(1)
	for _, d := range docs {
		ix.Add(d)
	}
	ix.Freeze()
	if col := ix.shards[0].col; col.contribDense[col.termID["museum"]] == nil {
		t.Fatal("'museum' did not cross bigTermDF; the corpus no longer exercises sparse selection")
	}
	queries := randomQueries(rng, 32)
	const k = 10
	want := make([][]Result, len(queries))
	for i, q := range queries {
		want[i] = ix.Search(q, k)
	}
	for _, shards := range []int{1, 4, 16} {
		six := buildSharded(docs, shards)
		for _, batch := range []int{1, 32} {
			got := make([][]Result, 0, len(queries))
			for lo := 0; lo < len(queries); lo += min(batch, len(queries)-lo) {
				got = append(got, six.SearchBatch(queries[lo:min(lo+batch, len(queries))], k)...)
			}
			for i, q := range queries {
				checkBitIdentical(t, fmt.Sprintf("shards=%d batch=%d SearchBatch[%d](%q, %d)", shards, batch, i, q, k),
					got[i], want[i])
			}
		}
	}
	for _, q := range queries[:6] {
		checkSameResults(t, fmt.Sprintf("big-term Search(%q) vs reference", q),
			ix.Search(q, k), refSearch(docs, q, k))
	}
}
