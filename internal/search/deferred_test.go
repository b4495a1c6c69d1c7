package search

// Tests of the scoring plan (columns.deferredTerms): a differential that
// reaches every route topDocsResolved takes out of it, and the bound's edges on
// hand-built columns.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// deferralCorpus is a randomCorpus large enough that its common words cross
// bigTermDF in every shard of a five-shard index, with the two other kinds of
// term the served "<cell> <city>" query is made of sprinkled in: medium words
// (a city: about one document in eighty) and rare ones (a name: six documents).
func deferralCorpus() []Document {
	rng := rand.New(rand.NewSource(2024))
	docs := randomCorpus(rng, 9000)
	add := func(word string, n int) {
		for i := 0; i < n; i++ {
			d := &docs[rng.Intn(len(docs))]
			words := strings.Fields(d.Body)
			at := rng.Intn(len(words) + 1)
			d.Body = strings.Join(append(words[:at:at], append([]string{word}, words[at:]...)...), " ")
		}
	}
	add("lisbon", 110)
	add("oslo", 140)
	add("zanzibar", 6)
	add("quixote", 6)
	return docs
}

// deferralQueries builds the matrix: {rare, big, medium} in every order, with
// zero, one and two big terms, an absent term in each slot, a duplicate term,
// and the "<rare> <big> <rare> <medium>" shape the pipeline sends.
func deferralQueries() []string {
	var qs []string
	for _, set := range [][]string{
		{"zanzibar", "lisbon"},                 // no big term
		{"zanzibar", "museum", "lisbon"},       // one
		{"quixote", "museum", "hotel", "oslo"}, // two
	} {
		var permute func(done, rest []string)
		permute = func(done, rest []string) {
			if len(rest) == 0 {
				qs = append(qs, strings.Join(done, " "))
				return
			}
			for i := range rest {
				left := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
				permute(append(done[:len(done):len(done)], rest[i]), left)
			}
		}
		permute(nil, set)
	}
	return append(qs,
		"zzzzqqqq museum lisbon", "zanzibar zzzzqqqq museum lisbon", "zanzibar museum zzzzqqqq lisbon", "zanzibar museum lisbon zzzzqqqq",
		"museum zanzibar museum lisbon", "lisbon museum lisbon", "museum museum oslo", "oslo museum museum",
		"zanzibar museum quixote lisbon", "quixote paintings zanzibar oslo", "zanzibar hotel museum paintings oslo",
		"museum", "museum hotel", "lisbon oslo",
	)
}

// TestDeferredTermsMatchReference holds the kernel to the scalar reference —
// doc, score bits, snippet, Terms — on queries that take every route through
// topDocsResolved: nothing deferred, one and two terms deferred, a deferred
// final term, an essential final term after a deferred one; at several shard
// counts, fresh and reloaded. It asks deferredTerms itself which routes the
// matrix reaches, so a corpus change cannot silently stop exercising them.
func TestDeferredTermsMatchReference(t *testing.T) {
	docs := deferralCorpus()
	ref := newRefCorpus(docs)
	queries := deferralQueries()
	ks, shardCounts := []int{1, 3, 10, 50, 20000}, []int{1, 2, 3, 5}
	if testing.Short() || raceEnabled {
		ks, shardCounts = []int{10, 200}, []int{3} // 200: past the rare and the medium terms
	}
	want := make(map[string][]Result, len(queries)*len(ks))
	for _, q := range queries {
		for _, k := range ks {
			want[fmt.Sprint(k, q)] = ref.search(q, k)
		}
	}
	for _, shards := range shardCounts {
		fresh := buildSharded(docs, shards)
		loaded, err := ReadShardedIndex(tidx(t, fresh))
		if err != nil {
			t.Fatal(err)
		}

		// The routes the matrix takes in shard 0 at k = 10, by deferred count.
		var counts [3]int
		finalDeferred, essentialAfter := 0, 0
		col := fresh.shards[0].col
		for _, q := range queries {
			var ids []int32
			for _, term := range textproc.NormalizeTokens(q) {
				ids = append(ids, fresh.termID(term))
			}
			ids = col.plan(ids, ids)
			_, deferred := col.deferredTerms(ids, 10)
			n, last := 0, -1
			for i, tid := range ids {
				if tid >= 0 {
					last = i
				}
				if deferred>>uint(i)&1 != 0 {
					n++
				}
			}
			counts[min(n, 2)]++
			if n > 0 && deferred>>uint(last)&1 != 0 {
				finalDeferred++
			} else if n > 0 {
				essentialAfter++
			}
		}
		if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 || finalDeferred == 0 || essentialAfter == 0 {
			t.Fatalf("shards=%d: queries by deferred terms %v, %d with a deferred final term, %d with an essential one after a deferred: the matrix no longer reaches every route",
				shards, counts, finalDeferred, essentialAfter)
		}

		for which, six := range []*ShardedIndex{fresh, loaded} {
			vocab := six.Vocab()
			for _, k := range ks {
				batch := six.SearchBatch(queries, k)
				for qi, q := range queries {
					label := fmt.Sprintf("shards=%d %s Search(%q, %d)", shards, [2]string{"fresh", "loaded"}[which], q, k)
					got, want := six.Search(q, k), want[fmt.Sprint(k, q)]
					checkBitIdentical(t, label+" vs batch", batch[qi], got)
					if len(got) != len(want) {
						t.Fatalf("%s: %d results, reference has %d", label, len(got), len(want))
					}
					for i, g := range got {
						w := want[i]
						if g.URL != w.URL || g.Title != w.Title || g.Snippet != w.Snippet || g.Score != w.Score {
							t.Fatalf("%s: result %d differs:\n got: %+v\nwant: %+v", label, i, g, w)
						}
						if i >= 50 {
							continue // a k > df list is thousands long: its first fifty Terms are checked
						}
						terms := []string{}
						for _, id := range g.Terms {
							if id >= 0 {
								terms = append(terms, vocab[id])
							}
						}
						if norm := textproc.NormalizeTokens(w.Snippet); !reflect.DeepEqual(terms, norm) {
							t.Fatalf("%s: result %d Terms decode to %q, snippet %q normalises to %q", label, i, terms, w.Snippet, norm)
						}
					}
				}
			}
		}
	}
}

// handColumns builds columns holding only what the scoring plan and kernel
// read: per term its contributions (docs 0..n-1) laid out best-first, cut into
// runs by the production compress, and a dense sidecar (denseCodes) when big
// is set.
func handColumns(contribs [][]float64, big []bool) *columns {
	c := &columns{engOff: []int32{0}, dense: make([]*denseCol, len(contribs))}
	var contrib []float64
	nDocs := 0
	for _, cs := range contribs {
		for d := range cs {
			c.engDoc = append(c.engDoc, int32(d))
		}
		contrib = append(contrib, cs...)
		c.engOff = append(c.engOff, int32(len(contrib)))
		nDocs = max(nDocs, len(cs))
	}
	c.sortSections(contrib)
	c.compress(contrib)
	for tid, b := range big {
		if b {
			c.dense[tid] = c.denseCodes(int32(tid), nDocs)
		}
	}
	return c
}

// TestDeferredTermsBound pins the bound's edges on hand-built columns.
func TestDeferredTermsBound(t *testing.T) {
	// Terms 0 and 6 are short: 0 has three postings, its k-th best (k = 2) is
	// 4; 6 has one. Terms 1-5 are big, with best postings 1.5, 2.5, 4, 9 and
	// 2.25.
	c := handColumns(
		[][]float64{{8, 4, 1}, {1.5, 0.5}, {0.25, 2.5}, {4, 3}, {9}, {2.25, 1}, {9}},
		[]bool{false, true, true, true, true, true, false},
	)
	for _, tc := range []struct {
		name     string
		tids     []int32
		k        int
		theta    float64
		deferred uint64
	}{
		{"one under the bound", []int32{0, 1}, 2, 4, 0b10},
		{"two under the bound: 1.5+2.25 < 4", []int32{1, 0, 5}, 2, 4, 0b101},
		{"a sum equal to theta exactly, 1.5+2.5, is not under it — and one big term left to enumerate defers none", []int32{1, 0, 2}, 2, 4, 0},
		{"a best posting equal to theta does not defer", []int32{3, 0}, 2, 4, 0},
		{"absent slots are skipped", []int32{-1, 1, -1, 0}, 2, 4, 0b0010},
		{"a duplicate is two slots: 1.5+1.5 < 4", []int32{1, 1, 0}, 2, 4, 0b011},
		{"and three are not: 4.5", []int32{1, 1, 1, 0}, 2, 4, 0},
		{"every present term big: the one theta comes from must enumerate, so none defers", []int32{3, 1}, 2, 3, 0},
		{"a column shorter than k gives no bound, the others still do", []int32{6, 1, 0}, 2, 4, 0b010},
		{"no column as long as k: theta -Inf defers nothing", []int32{0, 1, 2}, 4, math.Inf(-1), 0},
		{"k = 0 defers nothing", []int32{0, 1}, 0, math.Inf(-1), 0},
		{"k < 0 defers nothing", []int32{0, 1}, -3, math.Inf(-1), 0},
		{"no present term", []int32{-1, -1}, 2, math.Inf(-1), 0},
		{"more than 64 slots defer nothing", append(make([]int32, 64), 1), 2, 4, 0},
		{"64 do", append(make([]int32, 63), 1), 2, 4, 1 << 63},
	} {
		theta, deferred := c.deferredTerms(tc.tids, tc.k)
		if theta != tc.theta || deferred != tc.deferred {
			t.Errorf("%s: deferredTerms(%v, %d) = (%v, %b), want (%v, %b)", tc.name, tc.tids, tc.k, theta, deferred, tc.theta, tc.deferred)
		}
	}
}

// TestKthContribRunEdges holds kthContrib and deferredTerms' best-posting read
// to the expanded contribution column — itself held to each term's
// contributions sorted best-first — on hand columns for every k from -1 to
// one past the section: runs of length 1, a single-run term, a lone posting,
// and k exactly at a run's end and one past it. A short probe term beside each
// big one moves theta across the big term's best posting as k grows, so the
// deferral decision reads that posting at every k.
func TestKthContribRunEdges(t *testing.T) {
	contribs := [][]float64{
		{3, 3, 3, 3},                     // one run
		{5, 4, 3, 2, 1},                  // runs of length 1
		{9, 9, 7, 5, 5, 5, 2},            // runs ending at postings 2, 3, 6 and 7
		{4},                              // a lone posting
		{10, 8, 6, 5, 4.5, 4, 3, 2.5, 1}, // the probe
	}
	const probe = 4
	c := handColumns(contribs, []bool{true, true, true, true, false})
	expanded := c.contribColumn()
	kth := func(tid int32, k int) float64 {
		lo, hi := c.engOff[tid], c.engOff[tid+1]
		if k < 1 || k > int(hi-lo) {
			return math.Inf(-1)
		}
		return expanded[lo+int32(k)-1]
	}
	for tid := range contribs {
		lo, hi := c.engOff[tid], c.engOff[tid+1]
		want := slices.Sorted(slices.Values(contribs[tid]))
		slices.Reverse(want)
		if !slices.Equal(expanded[lo:hi], want) {
			t.Fatalf("t%d: runs expand to %v, want the section %v", tid, expanded[lo:hi], want)
		}
	}
	for tid := int32(0); tid < probe; tid++ {
		lo, hi := c.engOff[tid], c.engOff[tid+1]
		for k := -1; k <= int(hi-lo)+1; k++ {
			if got, want := c.kthContrib(tid, k), kth(tid, k); got != want {
				t.Errorf("t%d: kthContrib(%d) = %v, the expanded column holds %v", tid, k, got, want)
			}
			theta, deferred := c.deferredTerms([]int32{probe, tid}, k)
			wantTheta := max(kth(probe, k), kth(tid, k))
			wantDeferred := uint64(0)
			if expanded[lo] < wantTheta {
				wantDeferred = 0b10
			}
			if theta != wantTheta || deferred != wantDeferred {
				t.Errorf("t%d: deferredTerms(probe t%d, k %d) = (%v, %b), want (%v, %b) from best posting %v",
					tid, tid, k, theta, deferred, wantTheta, wantDeferred, expanded[lo])
			}
		}
	}
}

// TestBigTermPastCodeRange: a big term with more runs than a uint16 code can
// name gets no dense sidecar from the production scatterDense, is never
// deferred even where its best posting is under the bound, and every plan over
// it still scores exactly what summing the expanded columns in query-term
// order does.
func TestBigTermPastCodeRange(t *testing.T) {
	const nDocs = math.MaxUint16 + 4465 // 70 000
	huge := make([]float64, nDocs)
	for d := range huge {
		huge[d] = float64(d+1) / 65536 // all distinct: one run per posting
	}
	two := make([]float64, 2*bigTermDF)
	for d := range two {
		two[d] = 0.25 * float64(1+d%2)
	}
	const rare, hugeTerm, twoRuns = 0, 1, 2
	c := handColumns([][]float64{{100, 90, 80}, huge, two}, nil)
	c.scatterDense(nDocs)
	if n := c.runOff[hugeTerm+1] - c.runOff[hugeTerm]; n <= math.MaxUint16 {
		t.Fatalf("the huge term has %d runs, not past a uint16 code", n)
	}
	if c.dense[hugeTerm] != nil || c.dense[twoRuns] == nil {
		t.Fatalf("dense sidecars: huge term %v, two-run term %v; want none and one", c.dense[hugeTerm] != nil, c.dense[twoRuns] != nil)
	}
	for _, tc := range []struct {
		tids     []int32
		deferred uint64
	}{
		{[]int32{rare, hugeTerm}, 0},
		{[]int32{rare, twoRuns}, 0b10}, // the bound the huge term would meet
		{[]int32{rare, hugeTerm, twoRuns}, 0b100},
		{[]int32{twoRuns, rare, hugeTerm}, 0b001},
	} {
		if _, deferred := c.deferredTerms(tc.tids, 2); deferred != tc.deferred {
			t.Errorf("deferredTerms(%v, 2) defers %b, want %b", tc.tids, deferred, tc.deferred)
		}
	}

	ix := &Index{col: c}
	ix.docs = make([]Document, nDocs)
	expanded := c.contribColumn()
	for _, tids := range [][]int32{
		{rare, hugeTerm}, {hugeTerm, rare}, {hugeTerm}, {rare, hugeTerm, twoRuns},
		{twoRuns, rare, hugeTerm}, {hugeTerm, twoRuns}, {twoRuns, hugeTerm}, {-1, hugeTerm, -1},
	} {
		for _, k := range []int{1, 2, 10, 5000} {
			want := handSearch(c, expanded, nDocs, tids, k)
			acc := ix.getAccumulator()
			got := ix.topDocsResolved(acc, tids, k)
			if len(got) != len(want) {
				t.Fatalf("%v k %d: %d hits, want %d", tids, k, len(got), len(want))
			}
			for i := range got {
				if got[i].doc != want[i].doc || math.Float64bits(got[i].score) != math.Float64bits(want[i].score) {
					t.Fatalf("%v k %d: hit %d is %+v, want %+v", tids, k, i, got[i], want[i])
				}
			}
			ix.putAccumulator(acc)
		}
	}
}

// handSearch is the scalar top-k over hand columns: every doc's contributions
// summed from the expanded column in query-term order, sorted by (score desc,
// doc asc).
func handSearch(c *columns, expanded []float64, nDocs int, tids []int32, k int) []hit {
	scores := make([]float64, nDocs)
	for _, tid := range tids {
		if tid < 0 {
			continue
		}
		for i := c.engOff[tid]; i < c.engOff[tid+1]; i++ {
			scores[c.engDoc[i]] += expanded[i]
		}
	}
	var hits []hit
	for d, s := range scores {
		if s > 0 {
			hits = append(hits, hit{doc: d, score: s})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		switch {
		case worseHit(b, a):
			return -1
		case worseHit(a, b):
			return 1
		}
		return 0
	})
	return hits[:min(k, len(hits))]
}
