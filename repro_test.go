package repro

import (
	"context"
	"testing"

	"repro/internal/annotate"
	"repro/internal/world"
)

// TestFacadeQuickstart exercises the README quickstart path end to end
// against a small system: construct, annotate, verify.
func TestFacadeQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("facade integration test skipped in -short mode")
	}
	// Reuse the benchmark lab (building a second world would double the
	// suite's setup time); the hand-wired config below is the pipeline a
	// Service request runs, minus the spatial stage.
	l := lab()
	w := l.World

	tbl := Table{Name: "quickstart"}
	tbl.Columns = []Column{
		{Header: "Name", Type: Text},
		{Header: "Address", Type: Location},
		{Header: "Phone", Type: Text},
	}
	museum := w.OfType(world.Museum)[0]
	restaurant := w.OfType(world.Restaurant)[0]
	for _, e := range []*world.Entity{museum, restaurant} {
		if err := tbl.AppendRow(e.Name, e.Address(w.Gaz).Format(), e.Phone); err != nil {
			t.Fatal(err)
		}
	}

	res := mustAnnotate(t, annotate.Config{
		Searcher:    l.Engine,
		Classifier:  l.SVM,
		Types:       Types(),
		Postprocess: true,
	}, &tbl)
	if len(res.Annotations) == 0 {
		t.Fatal("quickstart produced no annotations")
	}
	byRow := map[int]Annotation{}
	for _, ann := range res.Annotations {
		if ann.Col == 1 {
			byRow[ann.Row] = ann
		}
	}
	if ann, ok := byRow[1]; !ok || ann.Type != "museum" {
		t.Errorf("row 1 = %+v, want museum", byRow[1])
	}
	if ann, ok := byRow[2]; !ok || ann.Type != "restaurant" {
		t.Errorf("row 2 = %+v, want restaurant", byRow[2])
	}
}

func TestTypesList(t *testing.T) {
	types := Types()
	if len(types) != 12 {
		t.Fatalf("Types() = %d entries, want 12", len(types))
	}
	seen := map[string]bool{}
	for _, typ := range types {
		if seen[typ] {
			t.Errorf("duplicate type %q", typ)
		}
		seen[typ] = true
	}
	for _, want := range []string{"restaurant", "museum", "actor", "simpsons episode"} {
		if !seen[want] {
			t.Errorf("missing type %q", want)
		}
	}
}

// TestNewSmall builds a service through the exported constructor with
// nothing but a seed, to guarantee the default construction path works and
// every accessor of a built world is populated (slower than the lab-reuse
// above, still bounded).
func TestNewSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("construction test skipped in -short mode")
	}
	svc, err := New(context.Background(), WithSeed(123))
	if err != nil {
		t.Fatal(err)
	}
	if svc.Engine().IndexSize() == 0 {
		t.Fatal("empty engine index")
	}
	if svc.Classifier("svm") == nil || svc.Classifier("bayes") == nil {
		t.Fatal("classifiers missing")
	}
	if lab := svc.Lab(); svc.Geo() == nil || lab == nil || lab.KB == nil || lab.World == nil {
		t.Fatal("accessors returned nil")
	}
	if b := svc.base; b.Searcher == nil || b.Classifier == nil || len(b.Types) != 12 {
		t.Fatalf("base config misconfigured: %+v", b)
	}
}
