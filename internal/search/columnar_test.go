package search

// Tests of the columnar compiler itself (columnar.go): the flat CSR form must
// be a lossless compilation of the reference's postings map,
// and the batch kernel built on it must stay bit-identical to the monolithic
// reference at every shard count × batch size the serving layer uses.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// checkColumnsRoundTrip asserts every shard of six — frozen by a Builder, or
// loaded from what such an index persisted — holds an exact compilation of
// the reference's maps over the same documents: dictionary, English postings
// and the count of the others, contributions bit-equal to the scalar BM25
// expression over ranking constants re-derived here from the maps, ordAll,
// the dense sidecars, and the term-id column.
func checkColumnsRoundTrip(t *testing.T, label string, ref *refIndex, six *ShardedIndex) {
	t.Helper()
	if six.Len() != ref.nDocs || len(six.shards) != len(ref.shards) {
		t.Fatalf("%s: index has %d docs in %d shards, reference %d in %d",
			label, six.Len(), len(six.shards), ref.nDocs, len(ref.shards))
	}
	// The oracle's ranking constants, straight from the maps.
	df := map[string]int{}
	totalLen := 0
	docLen := make([][]int, len(ref.shards))
	for si, sb := range ref.shards {
		docLen[si] = make([]int, len(sb.docs))
		for term, plist := range sb.postings {
			df[term] += len(plist)
			for _, p := range plist {
				docLen[si][p.doc] += p.tf
				totalLen += p.tf
			}
		}
	}
	n := float64(ref.nDocs)
	avgLen := float64(totalLen) / n

	for si, sb := range ref.shards {
		// The exhaustive suite comes through here several hundred thousand
		// times: the label is only put together on failure.
		fatalf := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s shard %d: "+format, append([]any{label, si}, args...)...)
		}
		ix := six.shards[si]
		c := ix.col
		if c == nil {
			fatalf("no columns")
		}
		if !reflect.DeepEqual(ix.docTable, sb.docTable) {
			fatalf("document table differs from the reference's")
		}

		// Term dictionary: a bijection onto the postings keys, in sorted order.
		if len(c.terms) != len(sb.postings) || len(c.termID) != len(sb.postings) {
			fatalf("%d column terms / %d ids for %d postings terms", len(c.terms), len(c.termID), len(sb.postings))
		}
		if !sort.StringsAreSorted(c.terms) {
			fatalf("column terms are not sorted")
		}
		for id, term := range c.terms {
			if got, ok := c.termID[term]; !ok || got != int32(id) {
				fatalf("termID[%q] = %d,%v, want %d", term, got, ok, id)
			}
		}

		for term, want := range sb.postings {
			tid := c.termID[term]

			// The English section is exactly the reference's English
			// postings in doc order, the other postings are only counted, and
			// every stored contribution must be the bitwise-identical float the
			// scalar loop would have computed from idf/tf/normK. For a fixed doc
			// that expression strictly increases with tf, so the contribution
			// also pins the tf the index no longer keeps.
			dff := float64(df[term])
			idf := math.Log((n-dff+0.5)/(dff+0.5) + 1)
			e, o := c.engOff[tid], int32(0)
			for _, p := range want {
				if sb.docs[p.doc].Lang == "en" {
					if int(c.engDoc[e]) != p.doc {
						fatalf("%q eng posting %d is doc %d, want %d", term, e, c.engDoc[e], p.doc)
					}
					tf := float64(p.tf)
					normK := bm25K1 * (1 - bm25B + bm25B*float64(docLen[si][p.doc])/avgLen)
					if want := idf * tf * (bm25K1 + 1) / (tf + normK); c.engContrib[e] != want {
						fatalf("%q contrib for doc %d = %v, want exactly %v", term, p.doc, c.engContrib[e], want)
					}
					e++
				} else {
					o++
				}
			}
			if e != c.engOff[tid+1] || o != c.othDF[tid] {
				fatalf("%q eng section length %d/%d, other postings %d/%d", term, e, c.engOff[tid+1], c.othDF[tid], o)
			}

			// ordAll: a permutation of the term's English section sorted by
			// the one-term top-k order (contribution desc, doc asc).
			lo, hi := c.engOff[tid], c.engOff[tid+1]
			ord := c.ordAll[lo:hi]
			seen := make([]bool, hi-lo)
			for i, e := range ord {
				if e < 0 || int(e) >= len(seen) || seen[e] {
					fatalf("%q ordAll is not a permutation at %d", term, i)
				}
				seen[e] = true
				if i > 0 {
					prev, cur := ord[i-1], e
					if c.engContrib[lo+prev] < c.engContrib[lo+cur] ||
						(c.engContrib[lo+prev] == c.engContrib[lo+cur] && c.engDoc[lo+prev] > c.engDoc[lo+cur]) {
						fatalf("%q ordAll out of order at %d", term, i)
					}
				}
			}

			// The dense sidecar exists exactly for big terms and scatters the
			// same contribution values the sparse form holds.
			big := int(hi-lo) >= bigTermDF
			if (c.contribDense[tid] != nil) != big {
				fatalf("%q dense sidecar present=%v, want %v (df %d)", term, c.contribDense[tid] != nil, big, hi-lo)
			}
			if big {
				dense := make([]float64, len(ix.docs))
				for i := lo; i < hi; i++ {
					dense[c.engDoc[i]] = c.engContrib[i]
				}
				if !reflect.DeepEqual(c.contribDense[tid], dense) {
					fatalf("%q contribDense does not match scattered contribs", term)
				}
			}
		}

		// Term-id column: per body word exactly the word's normalised tokens,
		// through the vocabulary.
		if len(ix.terms.ids) != ix.base[len(ix.docs)] {
			fatalf("term column holds %d words, the doc table %d", len(ix.terms.ids), ix.base[len(ix.docs)])
		}
		for d, doc := range sb.docs {
			for i, w := range strings.Fields(doc.Body) {
				got := []string{}
				for _, id := range ix.terms.window(ix.base[d]+i, ix.base[d]+i+1) {
					if id != noToken {
						got = append(got, six.vocab[id])
					}
				}
				if want := textproc.NormalizeTokens(w); !slices.Equal(got, want) {
					fatalf("doc %d word %d %q: term column holds %q, want %q", d, i, w, got, want)
				}
			}
		}
	}
}

// shapedCorpus is randomCorpus's sibling for the word-form memo: every shape
// a raw word form can take in it, each repeated within and across documents —
// punctuation-split multi-token words, words that normalise to nothing
// (stopwords, numerics, bare punctuation), case and inflection variants of one
// stem, non-English words and pages — in bodies that are their own
// single-space join and bodies that are not (tabs, newlines, runs of spaces,
// a no-break space, leading and trailing blanks), some empty.
func shapedCorpus(rng *rand.Rand, nDocs int) []Document {
	forms := []string{
		"jazz-club", "rock/pop", "state-of-the-art", "e-mail", "U.S.A.", "l'atelier", "Müller-Straße",
		"the", "of", "And", "12", "3.5", "2,000", "--", "—", "...", "'",
		"museum", "Museum", "MUSEUMS", "museum's", "museums.", "Museum,",
		"café", "Café", "naïve", "straße", "ÉCOLE", "über", "東京",
		"gallery", "hotel", "grand",
	}
	seps := []string{" ", " ", " ", " ", "  ", "\t", "\n", "\u00a0"}
	docs := make([]Document, 0, nDocs)
	for i := 0; i < nDocs; i++ {
		var body strings.Builder
		if rng.Intn(10) == 0 {
			body.WriteString(" ")
		}
		for j, n := 0, rng.Intn(30); j < n; j++ {
			if j > 0 {
				sep := " "
				if rng.Intn(6) == 0 {
					sep = seps[rng.Intn(len(seps))]
				}
				body.WriteString(sep)
			}
			body.WriteString(forms[rng.Intn(len(forms))])
		}
		if rng.Intn(10) == 0 {
			body.WriteString("\n")
		}
		lang := [...]string{"en", "en", "", "fr", "de"}[rng.Intn(5)]
		d := Document{
			URL:   fmt.Sprintf("s%d", i),
			Title: forms[rng.Intn(len(forms))] + " " + forms[rng.Intn(len(forms))],
			Body:  body.String(),
			Lang:  lang,
		}
		if rng.Intn(5) == 0 && i > 0 {
			d.Body = docs[rng.Intn(i)].Body
		}
		docs = append(docs, d)
	}
	return docs
}

// TestColumnarRoundTripProperty: on randomized corpora at 1, 2 and 3 shards,
// Freeze compiles columns that round-trip to the exact reference state and
// persist to the reference's TIDX bytes — and after more documents are added,
// a second Freeze compiles the grown state into new columns while the first
// index keeps the ones it was frozen with.
func TestColumnarRoundTripProperty(t *testing.T) {
	check := func(t *testing.T, docs []Document) {
		split := len(docs) * 2 / 3
		for shards := 1; shards <= 3; shards++ {
			b := NewBuilder(shards)
			for _, d := range docs[:split] {
				b.Add(d)
			}
			first := b.Freeze()
			checkFrozen(t, fmt.Sprintf("first freeze x%d", shards), docs[:split], shards, first)
			old := first.shards[0].col
			want := first.Search("museum restaurant", 3)

			for _, d := range docs[split:] {
				b.Add(d)
			}
			second := b.Freeze()
			if second.shards[0].col == old || first.shards[0].col != old {
				t.Fatal("the second freeze shares columns with the first index")
			}
			checkFrozen(t, fmt.Sprintf("second freeze x%d", shards), docs, shards, second)
			if first.Len() != split {
				t.Fatalf("first index grew to %d docs, frozen with %d", first.Len(), split)
			}
			checkBitIdentical(t, "first index after the second freeze", first.Search("museum restaurant", 3), want)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			check(t, randomCorpus(rng, 20+rng.Intn(150)))
		})
		t.Run(fmt.Sprint("shaped", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			check(t, shapedCorpus(rng, 20+rng.Intn(150)))
		})
	}

	// A corpus past the bigTermDF threshold, so the dense contribution
	// sidecars (nil on the small seeds above) round-trip too.
	t.Run("big-terms", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		docs := randomCorpus(rng, bigTermDF*4)
		six := buildSharded(docs, 1)
		col := six.shards[0].col
		big := 0
		for tid := range col.terms {
			if col.contribDense[tid] != nil {
				big++
			}
		}
		if big == 0 {
			t.Fatal("no term crossed bigTermDF; the corpus no longer exercises the dense sidecars")
		}
		checkFrozen(t, "big-term corpus", docs, 1, six)
	})
}

// sameIndex reports whether two indexes hold equal state: per shard the
// document table, the columns and the term-id column, and the vocabulary —
// everything Freeze derives, which TIDX no longer stores.
func sameIndex(a, b *ShardedIndex) bool {
	if a.nDocs != b.nDocs || len(a.shards) != len(b.shards) || !reflect.DeepEqual(a.vocab, b.vocab) {
		return false
	}
	for si, x := range a.shards {
		y := b.shards[si]
		if !reflect.DeepEqual(x.docTable, y.docTable) || !reflect.DeepEqual(x.col, y.col) || !reflect.DeepEqual(x.terms, y.terms) {
			return false
		}
	}
	return true
}

// checkFrozen checks an index a Builder froze from docs over shards shards
// against the reference over the same documents: its columns, its TIDX bytes
// against the bytes of the reference's own compilation, and its whole derived
// state against the reference's.
func checkFrozen(t *testing.T, label string, docs []Document, shards int, six *ShardedIndex) {
	t.Helper()
	ref := newRefIndex(docs, shards)
	checkColumnsRoundTrip(t, label, ref, six)
	want := ref.freeze()
	if !bytes.Equal(six.AppendTo(nil), want.AppendTo(nil)) {
		t.Fatalf("%s: TIDX bytes differ from the reference's", label)
	}
	if !sameIndex(six, want) {
		t.Fatalf("%s: derived state differs from the reference's", label)
	}
}

// TestFreezeScheduleIndependent: the TIDX bytes a Builder writes, and the
// state it derives, are the same at GOMAXPROCS 1, 2 and 8 — the shards are
// indexed and finished on the pool — and equal the reference's at every shard
// count; and Add → Freeze → Add → Freeze writes and derives what one Freeze
// over all the documents does.
func TestFreezeScheduleIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := append(shapedCorpus(rng, 300), randomCorpus(rng, 300)...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for shards := 1; shards <= 3; shards++ {
		ref := newRefIndex(docs, shards).freeze()
		want := ref.AppendTo(nil)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			six := buildSharded(docs, shards)
			if got := six.AppendTo(nil); !bytes.Equal(got, want) {
				t.Fatalf("shards=%d GOMAXPROCS=%d: TIDX bytes differ from the reference's", shards, procs)
			}
			if !sameIndex(six, ref) {
				t.Fatalf("shards=%d GOMAXPROCS=%d: derived state differs from the reference's", shards, procs)
			}
			b := NewBuilder(shards)
			for i, d := range docs {
				b.Add(d)
				if i == len(docs)/3 {
					b.Freeze()
				}
			}
			again := b.Freeze()
			if got := again.AppendTo(nil); !bytes.Equal(got, want) {
				t.Fatalf("shards=%d GOMAXPROCS=%d: Add, Freeze, Add, Freeze writes other bytes than one Freeze", shards, procs)
			}
			if !sameIndex(again, ref) {
				t.Fatalf("shards=%d GOMAXPROCS=%d: Add, Freeze, Add, Freeze derives other state than one Freeze", shards, procs)
			}
		}
	}
}

// TestKernelVsReferenceMatrix is the CI differential matrix: the columnar
// batch kernel at shard counts {1,4,16} × batch sizes {1,32} against both the
// monolithic single-query path (bit-identical) and the slow reference
// implementation (1e-9). CI runs exactly this test by name.
func TestKernelVsReferenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	docs := randomCorpus(rng, 160)
	ix := buildSharded(docs, 1)
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
	ix := buildSharded(docs, 1)
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
