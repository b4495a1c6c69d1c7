package eval

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/search"
	"repro/internal/textproc"
)

// checkingSearcher is the built-in engine with the id-path differential
// applied to every result it hands the pipeline: the hit's Terms decode to the
// tokens textproc derives from its snippet, and the bound SVM's decision
// values and label on those ids are the unbound SVM's on the extracted
// features.
type checkingSearcher struct {
	t      *testing.T
	engine *search.Engine
	svm    *classify.LinearSVM
	bound  *classify.BoundSVM
	labels []string

	mu       sync.Mutex
	queries  map[string]bool
	snippets int
}

func (c *checkingSearcher) SearchBatchContext(ctx context.Context, queries []string, k int) ([][]search.Result, error) {
	lists, err := c.engine.SearchBatchContext(ctx, queries, k)
	if err != nil {
		return nil, err
	}
	vocab := c.engine.ShardedIndex().Vocab()
	c.mu.Lock()
	defer c.mu.Unlock()
	for qi, results := range lists {
		c.queries[queries[qi]] = true
		for _, r := range results {
			c.snippets++
			if r.Terms == nil {
				c.t.Errorf("query %q: hit %s carries no Terms", queries[qi], r.URL)
				continue
			}
			got := []string{}
			for _, id := range r.Terms {
				if id >= 0 {
					got = append(got, vocab[id])
				}
			}
			if want := textproc.NormalizeTokens(r.Snippet); !reflect.DeepEqual(got, want) {
				c.t.Errorf("query %q: Terms decode to %q, snippet %q normalises to %q", queries[qi], got, r.Snippet, want)
			}
			f := textproc.Extract(r.Snippet)
			want := c.svm.Scores(f)
			for li, s := range c.bound.Scores(r.Terms, nil) {
				if math.Abs(s-want[c.labels[li]]) > 1e-12 {
					c.t.Errorf("query %q snippet %q: label %q scores %v on ids, %v on text", queries[qi], r.Snippet, c.labels[li], s, want[c.labels[li]])
				}
			}
			if onIDs, onText := c.bound.PredictTerms(r.Terms), c.svm.Predict(f); onIDs != onText && math.Abs(want[onIDs]-want[onText]) > 1e-12 {
				c.t.Errorf("query %q snippet %q: %q on ids, %q on text", queries[qi], r.Snippet, onIDs, onText)
			}
		}
	}
	return lists, nil
}

// TestTermsMatchExtract is the pipeline half of the id-path differential, on
// the real corpus: the seed-42 lab annotates its canonical tables with the
// configuration the analyses run (Lab.config, which must have bound the SVM)
// through checkingSearcher, so every snippet any of their unique queries
// retrieves is checked, and the annotations equal those of the same
// configuration classifying from snippet text.
func TestTermsMatchExtract(t *testing.T) {
	l := getLab(t)
	onIDs := l.config(l.SVM, true, true)
	onIDs.Cache = nil
	onText := onIDs
	onText.Classifier = l.SVM
	bound, ok := onIDs.Classifier.(*classify.BoundSVM)
	if !ok {
		t.Fatalf("Lab.config classifies with %T, want the SVM bound to the engine's vocabulary", onIDs.Classifier)
	}
	svm := l.SVM.(*classify.LinearSVM)
	// Scores come in the model's label order, which is sorted.
	labels := TypeStrings()
	slices.Sort(labels)
	if got := len(bound.Scores(nil, nil)); got != len(labels) {
		t.Fatalf("the SVM has %d labels, Γ %d", got, len(labels))
	}
	check := &checkingSearcher{t: t, engine: l.Engine, svm: svm, bound: bound, labels: labels, queries: map[string]bool{}}
	onIDs.Searcher = check
	ctx := context.Background()
	for _, tbl := range l.GFT.Tables {
		want, err := onText.Annotate(ctx, tbl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := onIDs.Annotate(ctx, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("table %s: annotations on ids differ from annotations on text", tbl.Name)
		}
	}
	t.Logf("%d tables, %d unique queries, %d snippets", len(l.GFT.Tables), len(check.queries), check.snippets)
	if len(l.GFT.Tables) != 39 || len(check.queries) < 1000 || check.snippets < 10000 {
		t.Errorf("covered %d tables, %d unique queries, %d snippets: not the canonical workload", len(l.GFT.Tables), len(check.queries), check.snippets)
	}
}
