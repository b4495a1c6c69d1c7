package search

// Tests of the columnar compiler itself (columnar.go): the flat CSR form must
// be a lossless compilation of the reference's postings map,
// and the batch kernel built on it must stay bit-identical to the monolithic
// reference at every shard count × batch size the serving layer uses.

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// checkColumnsRoundTrip asserts every shard of six — made by Build, or loaded
// from what such an index persisted — holds an exact compilation of
// the reference's maps over the same documents: dictionary, English postings
// and the count of the others, contributions — expanded from the runs, which
// are maximal — bit-equal to the scalar BM25 expression over ranking constants
// re-derived here from the maps, each section best-first, the dense sidecars,
// and the term-id column. The
// exhaustive suite comes through here several hundred thousand times: label
// is only called on failure.
func checkColumnsRoundTrip(t *testing.T, label func() string, ref *refIndex, six *ShardedIndex) {
	t.Helper()
	if six.Len() != ref.nDocs || len(six.shards) != len(ref.shards) {
		t.Fatalf("%s: index has %d docs in %d shards, reference %d in %d",
			label(), six.Len(), len(six.shards), ref.nDocs, len(ref.shards))
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
	// The vocabulary: every shard's terms, sorted; a term's id is its index.
	vocab := slices.Sorted(maps.Keys(df))
	if !slices.Equal(six.vocab, vocab) {
		t.Fatalf("%s: vocabulary %q, the reference's terms %q", label(), six.vocab, vocab)
	}
	vocabID := make(map[string]int32, len(vocab))
	for v, term := range vocab {
		vocabID[term] = int32(v)
	}

	for si, sb := range ref.shards {
		fatalf := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s shard %d: "+format, append([]any{label(), si}, args...)...)
		}
		ix := six.shards[si]
		c := ix.col
		if c == nil {
			fatalf("no columns")
		}
		if !reflect.DeepEqual(ix.docTable, sb.docTable) {
			fatalf("document table differs from the reference's")
		}

		// One id space: every per-term array has one entry per vocabulary
		// term, and a term the reference shard lacks has an empty section, no
		// other postings, no runs and no sidecar.
		nV := len(vocab)
		if len(c.engOff) != nV+1 || c.engOff[0] != 0 || int(c.engOff[nV]) != len(c.engDoc) || len(c.othDF) != nV {
			fatalf("section offsets of length %d (ending at %d of %d postings), %d other counts, for %d vocabulary terms", len(c.engOff), c.engOff[len(c.engOff)-1], len(c.engDoc), len(c.othDF), nV)
		}
		if len(c.runOff) != nV+1 || c.runOff[0] != 0 || int(c.runOff[nV]) != len(c.runVal) || len(c.runEnd) != len(c.runVal) {
			fatalf("run offsets of length %d (first %v) for %d terms, %d run values, %d run ends", len(c.runOff), c.runOff[:min(1, len(c.runOff))], nV, len(c.runVal), len(c.runEnd))
		}
		if len(c.dense) != nV {
			fatalf("%d dense sidecar slots for %d terms", len(c.dense), nV)
		}
		for tid, term := range vocab {
			if _, ok := sb.postings[term]; ok {
				continue
			}
			if c.engOff[tid] != c.engOff[tid+1] || c.othDF[tid] != 0 || c.runOff[tid] != c.runOff[tid+1] || c.dense[tid] != nil {
				fatalf("%q, which the shard lacks, has section %d:%d, %d other postings, runs %d:%d, a sidecar: %v",
					term, c.engOff[tid], c.engOff[tid+1], c.othDF[tid], c.runOff[tid], c.runOff[tid+1], c.dense[tid] != nil)
			}
		}
		var eng []engPosting   // one term's expected section; reused
		var contribs []float64 // its contributions expanded from the runs; reused
		for term, want := range sb.postings {
			tid := vocabID[term]

			// The English section is exactly the reference's English
			// postings in the one-term top-k order (contribution desc, doc
			// asc), the other postings are only counted, and every stored
			// contribution must be the bitwise-identical float the scalar loop
			// would have computed from idf/tf/normK. For a fixed doc that
			// expression strictly increases with tf, so the contribution also
			// pins the tf the index no longer keeps.
			dff := float64(df[term])
			idf := math.Log((n-dff+0.5)/(dff+0.5) + 1)
			eng = eng[:0]
			o := int32(0)
			for _, p := range want {
				if sb.docs[p.doc].Lang == "en" {
					tf := float64(p.tf)
					normK := bm25K1 * (1 - bm25B + bm25B*float64(docLen[si][p.doc])/avgLen)
					eng = append(eng, engPosting{int32(p.doc), idf * tf * (bm25K1 + 1) / (tf + normK)})
				} else {
					o++
				}
			}
			lo, hi := c.engOff[tid], c.engOff[tid+1]
			if int(hi-lo) != len(eng) || o != c.othDF[tid] {
				fatalf("%q eng section length %d/%d, other postings %d/%d", term, hi-lo, len(eng), c.othDF[tid], o)
			}
			slices.SortFunc(eng, bestFirstCmp)

			// The runs tile the section, each non-empty, with strictly
			// decreasing values — maximal, one per distinct contribution —
			// and expand to one contribution per posting.
			ro, rhi := c.runOff[tid], c.runOff[tid+1]
			if ro > rhi {
				fatalf("%q runs %d:%d", term, ro, rhi)
			}
			contribs = contribs[:0]
			start := lo
			for r := ro; r < rhi; r++ {
				if c.runEnd[r] <= start || c.runEnd[r] > hi {
					fatalf("%q run %d ends at %d, after %d, in section %d:%d", term, r-ro, c.runEnd[r], start, lo, hi)
				}
				if r > ro && !(c.runVal[r] < c.runVal[r-1]) {
					fatalf("%q run %d value %v after %v: runs are not maximal and strictly decreasing", term, r-ro, c.runVal[r], c.runVal[r-1])
				}
				for ; start < c.runEnd[r]; start++ {
					contribs = append(contribs, c.runVal[r])
				}
			}
			if start != hi {
				fatalf("%q runs cover %d:%d of section %d:%d", term, lo, start, lo, hi)
			}
			for i, p := range eng {
				if got := (engPosting{c.engDoc[int(lo)+i], contribs[i]}); got != p {
					fatalf("%q eng posting %d is doc %d contrib %v, want doc %d contrib exactly %v", term, i, got.doc, got.contrib, p.doc, p.contrib)
				}
			}

			// The dense sidecar exists exactly for big terms whose runs a
			// uint16 code can name, and each doc's code decodes to the
			// contribution the section holds for it — bitwise — or 0.
			big := int(hi-lo) >= bigTermDF && rhi-ro <= math.MaxUint16
			dc := c.dense[tid]
			if (dc != nil) != big {
				fatalf("%q dense sidecar present=%v, want %v (df %d, %d runs)", term, dc != nil, big, hi-lo, rhi-ro)
			}
			if big {
				if len(dc.code) != len(ix.docs) || len(dc.val) != int(rhi-ro)+1 {
					fatalf("%q dense sidecar holds %d codes for %d docs, %d values for %d runs",
						term, len(dc.code), len(ix.docs), len(dc.val), rhi-ro)
				}
				dense := make([]float64, len(ix.docs))
				for _, p := range eng {
					dense[p.doc] = p.contrib
				}
				for d, want := range dense {
					if got := dc.contrib(int32(d)); math.Float64bits(got) != math.Float64bits(want) {
						fatalf("%q dense code of doc %d decodes to %v, the section holds %v", term, d, got, want)
					}
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
				if want := normTokens(w); !slices.Equal(got, want) {
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
// Build compiles columns that round-trip to the exact reference state and
// persist to the reference's TIDX bytes.
func TestColumnarRoundTripProperty(t *testing.T) {
	check := func(t *testing.T, docs []Document) {
		for shards := 1; shards <= 3; shards++ {
			checkFrozen(t, fmt.Sprintf("x%d", shards), docs, shards, buildSharded(docs, shards))
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
		for _, dc := range col.dense {
			if dc != nil {
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
// everything Build derives, which TIDX no longer stores.
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

// checkFrozen checks an index Build made from docs over shards shards
// against the reference over the same documents: its columns, its TIDX bytes
// against the bytes of the reference's own compilation, and its whole derived
// state against the reference's.
func checkFrozen(t *testing.T, label string, docs []Document, shards int, six *ShardedIndex) {
	t.Helper()
	ref := newRefIndex(docs, shards)
	checkColumnsRoundTrip(t, func() string { return label }, ref, six)
	want := ref.freeze()
	if !bytes.Equal(six.AppendTo(nil), want.AppendTo(nil)) {
		t.Fatalf("%s: TIDX bytes differ from the reference's", label)
	}
	if !sameIndex(six, want) {
		t.Fatalf("%s: derived state differs from the reference's", label)
	}
}

// TestFreezeScheduleIndependent: the TIDX bytes Build writes, and the state it
// derives, are the same at GOMAXPROCS 1, 2 and 8 — the producer and every shard
// each hold a worker of the build's pool, which must not deadlock on one
// processor, and the shards are finished on the pool — and equal the
// reference's at every shard count.
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
		}
	}
}

// TestSectionsMatchSort: every English section bestFirst lays out without a
// comparison sort, and the runs compress cuts it into, equal the ones sortOrd
// derives from a comparison sort, per shard and term: on
// shapedCorpus and randomCorpus at 1 to 3 shards, on a corpus where one term
// takes six tf values over documents of equal and of different lengths with
// equal contributions across tf groups (only doc order can break those ties),
// and on hand-laid columns where a run of equal contributions spans lengths.
// On every corpus of the small scope, TestExhaustiveSmallScope holds the same
// sections to a comparison sort of the reference's postings
// (checkColumnsRoundTrip).
func TestSectionsMatchSort(t *testing.T) {
	check := func(t *testing.T, label func() string, six *ShardedIndex) {
		t.Helper()
		for si, sh := range six.shards {
			want := *sh.col
			want.sortOrd(len(sh.docs))
			if !sameSections(sh.col, &want) {
				t.Fatalf("%s shard %d: sections %v runs %v %v, sortOrd %v runs %v %v", label(), si,
					sh.col.engDoc, sh.col.runVal, sh.col.runEnd, want.engDoc, want.runVal, want.runEnd)
			}
		}
	}

	t.Run("tf-groups", func(t *testing.T) {
		// "museum" tf times in a body of length words; with an average length
		// of exactly 12, normK(2L+4) = 2·normK(L) bit for bit, so a doc of tf
		// 2a and length 2L+4 scores exactly what one of tf a and length L does.
		spec := [][2]int{
			{2, 8}, {1, 4}, {3, 6}, {1, 2}, {4, 12}, {2, 12},
			{6, 16}, {2, 4}, {3, 6}, {4, 12}, {5, 9}, {1, 2},
			{0, 63}, // brings the average to 12
		}
		var docs []Document
		for i, tl := range spec {
			words := slices.Repeat([]string{"museum"}, tl[0])
			words = append(words, slices.Repeat([]string{"gallery"}, tl[1]-tl[0])...)
			docs = append(docs, Document{URL: fmt.Sprint("h", i), Body: strings.Join(words, " ")})
		}
		six := buildSharded(docs, 1)
		col := six.shards[0].col
		contribs := col.contribColumn()
		contrib := func(d int32) float64 {
			tid := six.termID("museum")
			lo, hi := col.engOff[tid], col.engOff[tid+1]
			return contribs[int(lo)+slices.Index(col.engDoc[lo:hi], d)]
		}
		// The tie pairs, each once with the smaller tf on the smaller doc and
		// once on the larger.
		for _, pair := range [][2]int32{{0, 3}, {1, 5}, {2, 6}, {4, 7}} {
			if contrib(pair[0]) != contrib(pair[1]) {
				t.Fatalf("docs %d and %d no longer tie; the corpus does not exercise the tie rule", pair[0], pair[1])
			}
		}
		for shards := 1; shards <= 3; shards++ {
			check(t, func() string { return fmt.Sprintf("x%d", shards) }, buildSharded(docs, shards))
		}
	})

	t.Run("ties-across-lengths", func(t *testing.T) {
		// One tf, docs of lengths 5, 3, 3, 7 laid out in (length, doc) order —
		// 1, 2, 0, 3 — as flatten lays them: contributions do not increase,
		// and the run of 1.5 spans lengths 3 and 5 out of doc order. No
		// built corpus can hold such a run (docOrderTies derives the bound),
		// so these columns are laid by hand.
		contrib := []float64{2, 1.5, 1.5, 1}
		c := &columns{engOff: []int32{0, 4}, engDoc: []int32{1, 2, 0, 3}}
		want := *c
		want.engDoc = slices.Clone(c.engDoc)
		wantContrib := slices.Clone(contrib)
		want.sortSections(wantContrib)
		want.compress(wantContrib)
		c.bestFirst([]int32{1, 1, 1, 1}, contrib)
		c.compress(contrib)
		if !sameSections(c, &want) {
			t.Fatalf("section %v runs %v %v, sortOrd %v runs %v %v", c.engDoc, c.runVal, c.runEnd, want.engDoc, want.runVal, want.runEnd)
		}
	})

	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shaped, random := shapedCorpus(rng, 20+rng.Intn(300)), randomCorpus(rng, 20+rng.Intn(300))
		for shards := 1; shards <= 3; shards++ {
			check(t, func() string { return fmt.Sprintf("shaped seed %d x%d", seed, shards) }, buildSharded(shaped, shards))
			check(t, func() string { return fmt.Sprintf("random seed %d x%d", seed, shards) }, buildSharded(random, shards))
		}
	}
}

// sameSections reports whether two columns hold the same sections and runs.
func sameSections(a, b *columns) bool {
	return slices.Equal(a.engOff, b.engOff) && slices.Equal(a.engDoc, b.engDoc) &&
		slices.Equal(a.runOff, b.runOff) && slices.Equal(a.runVal, b.runVal) && slices.Equal(a.runEnd, b.runEnd)
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
	if ix.shards[0].col.dense[ix.termID("museum")] == nil {
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
