package annotate

import (
	"slices"
	"testing"

	"repro/internal/classify"
	"repro/internal/search"
	"repro/internal/table"
	"repro/internal/textproc"
)

// constClassifier always predicts the same label — a failure-injection stub.
type constClassifier string

func (c constClassifier) Predict(textproc.Features) string { return string(c) }

func TestAnnotateEmptyTable(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("empty", table.Column{Header: "Name", Type: table.Text})
	res := annotateTable(f.config(), tbl)
	if len(res.Annotations) != 0 || res.Queries != 0 {
		t.Errorf("empty table produced %d annotations, %d queries", len(res.Annotations), res.Queries)
	}
}

func TestAnnotateAllColumnsSkipped(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("skips",
		table.Column{Header: "When", Type: table.Date},
		table.Column{Header: "Where", Type: table.Location},
		table.Column{Header: "HowMany", Type: table.Number},
	)
	if err := tbl.AppendRow("2013-03-18", "Genoa, Italy", "250"); err != nil {
		t.Fatal(err)
	}
	res := annotateTable(f.config(), tbl)
	if len(res.Annotations) != 0 || res.Queries != 0 {
		t.Errorf("fully skipped table still annotated: %+v", res)
	}
	if res.Skipped[SkipColumnType] != 3 {
		t.Errorf("column-type skips = %d, want 3", res.Skipped[SkipColumnType])
	}
}

func TestAnnotateAgainstEmptyEngine(t *testing.T) {
	// A search engine with no corpus: every query returns nothing, so no
	// cell can clear the majority rule — the pipeline degrades to "no
	// annotations", never to a panic.
	engine := search.NewShardedEngine(search.Build(1, slices.Values([]search.Document(nil))))
	var train classify.Dataset
	train.Add("museum gallery", "museum")
	a := Config{
		Searcher:   engine,
		Classifier: classify.BayesTrainer{}.Train(train),
		Types:      []string{"museum"},
	}
	tbl := table.New("t", table.Column{Header: "Name", Type: table.Text})
	if err := tbl.AppendRow("Musée Lavande"); err != nil {
		t.Fatal(err)
	}
	res := annotateTable(a, tbl)
	if len(res.Annotations) != 0 {
		t.Errorf("annotations from an empty web: %+v", res.Annotations)
	}
	if res.Queries != 1 {
		t.Errorf("queries = %d, want 1", res.Queries)
	}
}

// TestAnnotateWithDegenerateClassifier: a classifier stuck on one label
// annotates everything with it; post-processing then keeps only the best
// column instead of spraying annotations across the table.
func TestAnnotateWithDegenerateClassifier(t *testing.T) {
	f := newFixture(t)
	a := f.config()
	a.Classifier = constClassifier("museum")
	a.Postprocess = true
	tbl := table.New("deg",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Alt", Type: table.Text},
	)
	rows := [][]string{
		{"Musée Lavande", "Chez Martin"},
		{"National Museum of Glass", "The Golden Fig"},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	res := annotateTable(a, tbl)
	cols := map[int]bool{}
	for _, ann := range res.Annotations {
		if ann.Type != "museum" {
			t.Errorf("degenerate classifier produced type %q", ann.Type)
		}
		cols[ann.Col] = true
	}
	if len(cols) > 1 {
		t.Errorf("post-processing left annotations in %d columns, want 1", len(cols))
	}
}

func TestAnnotateGammaRestriction(t *testing.T) {
	// Predictions outside Γ are ignored even if the classifier emits
	// them: restrict Γ to museum only and annotate a restaurant.
	f := newFixture(t)
	a := f.config()
	a.Types = []string{"museum"}
	tbl := table.New("g", table.Column{Header: "Name", Type: table.Text})
	if err := tbl.AppendRow("Chez Martin"); err != nil {
		t.Fatal(err)
	}
	res := annotateTable(a, tbl)
	for _, ann := range res.Annotations {
		if ann.Type != "museum" {
			t.Errorf("annotation outside Γ: %+v", ann)
		}
	}
}

func TestDisambiguationWithoutGazetteerIsSafe(t *testing.T) {
	f := newFixture(t)
	a := f.config()
	a.Disambiguate = true
	a.Gazetteer = nil // misconfiguration: flag on, no gazetteer
	tbl := table.New("s",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Address", Type: table.Location},
	)
	if err := tbl.AppendRow("Musée Lavande", "Ocean Drive, Santa Monica"); err != nil {
		t.Fatal(err)
	}
	res := annotateTable(a, tbl) // must not panic
	if _, ok := find(res, 1, 1); !ok {
		t.Error("annotation lost when disambiguation is misconfigured")
	}
}
