package annotate

import (
	"context"
	"testing"

	"repro/internal/classify"
	"repro/internal/search"
)

// decideInputs returns the fixture, its configuration's type set and the
// result lists of a few cell queries as the execute stage would hold them.
func decideInputs(tb testing.TB) (*fixture, map[string]struct{}, [][]search.Result) {
	f := newFixture(tb)
	c := f.config()
	lists, err := f.engine.SearchBatchContext(context.Background(),
		[]string{"Musée Lavande", "Chez Martin", "Melisse", "Harbor Gallery of Art", "The Golden Fig"}, c.k())
	if err != nil {
		tb.Fatal(err)
	}
	return f, c.typeSet(), lists
}

// withoutText and withoutTerms strip one of the two forms a hit carries its
// snippet in.
func withoutText(results []search.Result) []search.Result {
	out := append([]search.Result(nil), results...)
	for i := range out {
		out[i].Snippet = ""
	}
	return out
}

func withoutTerms(results []search.Result) []search.Result {
	out := append([]search.Result(nil), results...)
	for i := range out {
		out[i].Terms = nil
	}
	return out
}

// TestDecideReadsTermsNotText: with the built-in engine and a bound
// classifier the decide loop never looks at the snippet text — blanking it
// changes no verdict, and the verdicts still tell the fixture's types apart —
// and it allocates nothing; take the ids away (or the binding) and the text
// path reaches the same verdict.
func TestDecideReadsTermsNotText(t *testing.T) {
	f, gamma, lists := decideInputs(t)
	c, unbound := f.config(), f.config()
	unbound.Classifier = f.svm
	if _, isBound := unbound.Classifier.(classify.TermClassifier); isBound {
		t.Fatal("fixture: the unbound classifier is bound")
	}
	sc := getScratch()
	defer putScratch(sc)
	blind := map[string]bool{}
	for i, results := range lists {
		typ, score, ok := c.decideWith(sc, results, gamma)
		if ok {
			blind[typ] = true
		}
		if t2, s2, ok2 := c.decideWith(sc, withoutText(results), gamma); t2 != typ || s2 != score || ok2 != ok {
			t.Errorf("query %d: verdict (%q, %v, %v) became (%q, %v, %v) with the snippet text blanked", i, typ, score, ok, t2, s2, ok2)
		}
		if t2, s2, ok2 := c.decideWith(sc, withoutTerms(results), gamma); t2 != typ || s2 != score || ok2 != ok {
			t.Errorf("query %d: verdict (%q, %v, %v) on ids, (%q, %v, %v) on text", i, typ, score, ok, t2, s2, ok2)
		}
		if t2, s2, ok2 := unbound.decideWith(sc, results, gamma); t2 != typ || s2 != score || ok2 != ok {
			t.Errorf("query %d: verdict (%q, %v, %v) bound, (%q, %v, %v) unbound", i, typ, score, ok, t2, s2, ok2)
		}
	}
	// Blank text cannot tell a museum from a restaurant; the ids can.
	if len(blind) < 2 {
		t.Fatalf("verdicts without snippet text: %v, want both types of the fixture", blind)
	}
	snippets := 0
	for _, results := range lists {
		snippets += len(results)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, results := range lists {
			c.decideWith(sc, results, gamma)
		}
	})
	if allocs != 0 {
		t.Errorf("the id decide path allocates %v times per %d snippets, want 0", allocs, snippets)
	}
}

// BenchmarkDecide is the Eq. 1 decide loop on one result list per iteration,
// from the hits' token ids and from their snippet text: the per-snippet cost
// of step 3 without the benchmark harness.
func BenchmarkDecide(b *testing.B) {
	f, gamma, lists := decideInputs(b)
	c := f.config()
	for _, mode := range []struct {
		name  string
		strip func([]search.Result) []search.Result
	}{
		{"ids", func(r []search.Result) []search.Result { return r }},
		{"string", withoutTerms},
	} {
		b.Run(mode.name, func(b *testing.B) {
			in := make([][]search.Result, len(lists))
			snippets := 0
			for i, results := range lists {
				in[i] = mode.strip(results)
				snippets += len(results)
			}
			sc := getScratch()
			defer putScratch(sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.decideWith(sc, in[i%len(in)], gamma)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(snippets)/float64(len(in))), "ns/snippet")
		})
	}
}
