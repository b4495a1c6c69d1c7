package annotate

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/gazetteer"
	"repro/internal/search"
	"repro/internal/table"
)

// fixture wires a miniature end-to-end world: two types, a handful of
// entities with themed pages, one ambiguous name ("Melisse": restaurant in
// Santa Monica + jazz label), and a classifier trained on themed snippets.
type fixture struct {
	engine     *search.Engine
	classifier classify.Classifier
	svm        classify.Classifier // classifier before binding
	gaz        *gazetteer.Frozen
	types      []string
}

var museumVocab = []string{"museum", "gallery", "exhibition", "collection", "paintings", "curator", "artifacts", "sculpture"}
var restVocab = []string{"restaurant", "menu", "cuisine", "chef", "dining", "dishes", "reservations", "tasting"}
var jazzVocab = []string{"jazz", "label", "records", "vinyl", "saxophone", "quartet", "improvisation", "releases"}

func themed(rng *rand.Rand, name string, vocab []string, extra ...string) string {
	words := []string{name}
	for len(words) < 40 {
		if len(extra) > 0 && rng.Intn(5) == 0 {
			words = append(words, extra[rng.Intn(len(extra))])
		} else {
			words = append(words, vocab[rng.Intn(len(vocab))])
		}
	}
	return strings.Join(words, " ")
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ix := search.NewBuilder(1)
	docs := 0
	add := func(title, body string) {
		ix.Add(search.Document{URL: fmt.Sprintf("u%d", docs), Title: title, Body: body})
		docs++
	}
	museums := []string{"Musée Lavande", "National Museum of Glass", "Harbor Gallery of Art"}
	restaurants := []string{"Chez Martin", "The Golden Fig", "Melisse"}
	for _, m := range museums {
		for p := 0; p < 6; p++ {
			add(m, themed(rng, m, museumVocab))
		}
	}
	for _, r := range restaurants {
		for p := 0; p < 6; p++ {
			extra := []string{}
			if r == "Melisse" {
				extra = []string{"Santa", "Monica", "Santa", "Monica"}
			}
			add(r, themed(rng, r, restVocab, extra...))
		}
	}
	// The jazz label sharing the name Melisse: enough pages to crowd the
	// unaugmented top-k.
	for p := 0; p < 8; p++ {
		add("Melisse — jazz label", themed(rng, "Melisse", jazzVocab))
	}

	var train classify.Dataset
	for i := 0; i < 150; i++ {
		train.Add(themed(rng, "", museumVocab), "museum")
		train.Add(themed(rng, "", restVocab), "restaurant")
	}
	clf := classify.LinearSVMTrainer{Seed: 2}.Train(train)
	six := ix.Freeze()

	return &fixture{
		engine: search.NewShardedEngine(six),
		// Bound to the engine's vocabulary, as the service and the lab bind
		// theirs: the fixture's pipeline runs decide on the hits' token ids.
		classifier: classify.Bind(clf, six.Vocab()),
		svm:        clf,
		gaz:        gazetteer.Synthetic(3).Freeze(),
		types:      []string{"museum", "restaurant"},
	}
}

func (f *fixture) config() Config {
	return Config{
		Searcher:   f.engine,
		Classifier: f.classifier,
		Types:      f.types,
		K:          10,
	}
}

// annotateTable and explainTable run the pipeline under a background context,
// which never cancels, so the run cannot fail.
func annotateTable(c Config, t *table.Table) *Result {
	return mustResult(c.Annotate(context.Background(), t))
}

func explainTable(c Config, t *table.Table) []CellExplanation {
	return mustResult(c.For(t).AnnotateTraced(context.Background())).Trace
}

func poiTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("pois",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Phone", Type: table.Text},
		table.Column{Header: "Notes", Type: table.Text},
	)
	rows := [][]string{
		{"Musée Lavande", "(410) 555-0101", "A well loved spot that visitors enjoy for many reasons all year round in town"},
		{"National Museum of Glass", "(410) 555-0102", "worth a visit"},
		{"Chez Martin", "(410) 555-0103", "book ahead"},
		{"The Golden Fig", "(410) 555-0104", "good value"},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func find(res *Result, row, col int) (Annotation, bool) {
	for _, a := range res.Annotations {
		if a.Row == row && a.Col == col {
			return a, true
		}
	}
	return Annotation{}, false
}

func TestPreprocessorRules(t *testing.T) {
	cases := map[string]SkipReason{
		"":                     SkipEmpty,
		"  ":                   SkipEmpty,
		"(410) 555-0199":       SkipPhone,
		"+33 1 44 55 66 77":    SkipPhone,
		"http://example.com/x": SkipURL,
		"www.example.com":      SkipURL,
		"info@example.com":     SkipEmail,
		"12345":                SkipNumeric,
		"3.14":                 SkipNumeric,
		"1,000,000":            SkipNumeric,
		"48.8566, 2.3522":      SkipCoords,
		"this is a very long verbose description of the place spanning many words": SkipLong,
		"Musée du Louvre": SkipNone,
		"Chez Panisse":    SkipNone,
		"Melisse":         SkipNone,
	}
	for in, want := range cases {
		if got := CheckCell(in); got != want {
			t.Errorf("CheckCell(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPreprocessorColumnFilter(t *testing.T) {
	if !SkipColumn(table.Location) || !SkipColumn(table.Date) || !SkipColumn(table.Number) {
		t.Error("pre-processing must skip Location/Date/Number columns")
	}
	if SkipColumn(table.Text) {
		t.Error("Text columns must not be skipped")
	}
}

func TestAnnotateTableFindsEntities(t *testing.T) {
	f := newFixture(t)
	res := annotateTable(f.config(), poiTable(t))

	wantTypes := map[int]string{1: "museum", 2: "museum", 3: "restaurant", 4: "restaurant"}
	for row, wantType := range wantTypes {
		ann, ok := find(res, row, 1)
		if !ok {
			t.Errorf("row %d not annotated", row)
			continue
		}
		if ann.Type != wantType {
			t.Errorf("row %d annotated %q, want %q", row, ann.Type, wantType)
		}
		if ann.Score <= 0.5 || ann.Score > 1.0 {
			t.Errorf("row %d score %v outside (0.5, 1]", row, ann.Score)
		}
	}
	// Phone cells never get annotated.
	if _, ok := find(res, 1, 2); ok {
		t.Error("phone cell annotated")
	}
	if res.Skipped[SkipPhone] != 4 {
		t.Errorf("phone skips = %d, want 4", res.Skipped[SkipPhone])
	}
	if res.Skipped[SkipLong] == 0 {
		t.Error("verbose description not skipped")
	}
}

func TestMajorityRule(t *testing.T) {
	cases := []struct {
		counts map[string]int
		k      int
		want   string
		ok     bool
	}{
		{map[string]int{"museum": 8, "restaurant": 2}, 10, "museum", true},
		{map[string]int{"museum": 5, "restaurant": 5}, 10, "", false}, // tie
		{map[string]int{"museum": 5}, 10, "", false},                  // exactly k/2
		{map[string]int{"museum": 6}, 10, "museum", true},
		{map[string]int{}, 10, "", false},
		{map[string]int{"museum": 2}, 3, "museum", true}, // short result list
		{nil, 0, "", false},
	}
	for _, c := range cases {
		got, score, ok := majorityType(c.counts, c.k)
		if ok != c.ok || got != c.want {
			t.Errorf("majorityType(%v, %d) = (%q, %v), want (%q, %v)", c.counts, c.k, got, ok, c.want, c.ok)
		}
		if ok && score != float64(c.counts[got])/float64(c.k) {
			t.Errorf("score = %v, want Eq.1 value", score)
		}
	}
}

func TestQueryCacheDeduplicates(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("dup", table.Column{Header: "Name", Type: table.Text})
	for i := 0; i < 5; i++ {
		if err := tbl.AppendRow("Musée Lavande"); err != nil {
			t.Fatal(err)
		}
	}
	res := annotateTable(f.config(), tbl)
	if res.Queries != 1 {
		t.Errorf("queries = %d, want 1 (cache)", res.Queries)
	}
	if len(res.Annotations) != 5 {
		t.Errorf("annotations = %d, want 5 (cache replays verdicts)", len(res.Annotations))
	}
}

// TestPostprocessingKillsRepeatedTypeWords reproduces Figure 8: a second
// column holding the literal word "Museum" in many cells gets (mis)annotated
// by the classifier, and Eq. 2 eliminates it because column 1 has distinct
// high-scoring values while column 2's repeats are damped by 1/o_ij.
func TestPostprocessingKillsRepeatedTypeWords(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("fig8",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Type", Type: table.Text},
	)
	rows := [][]string{
		{"Musée Lavande", "Museum"},
		{"National Museum of Glass", "Museum"},
		{"Harbor Gallery of Art", "Museum"},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}

	plain := f.config()
	res := annotateTable(plain, tbl)
	col2Before := 0
	for _, a := range res.Annotations {
		if a.Col == 2 {
			col2Before++
		}
	}

	post := f.config()
	post.Postprocess = true
	resPost := annotateTable(post, tbl)
	for _, a := range resPost.Annotations {
		if a.Col == 2 {
			t.Errorf("post-processing kept spurious annotation in column 2: %+v", a)
		}
	}
	// Column 1 annotations survive.
	if _, ok := find(resPost, 1, 1); !ok {
		t.Error("post-processing dropped the genuine name column")
	}
	if resPost.ColumnScores["museum"] == nil {
		t.Error("column scores not reported")
	}
	if col2Before > 0 {
		s1 := resPost.ColumnScores["museum"][1]
		s2 := resPost.ColumnScores["museum"][2]
		if s1 <= s2 {
			t.Errorf("Eq.2 scores: col1=%v col2=%v, want col1 > col2", s1, s2)
		}
	}
}

// TestDisambiguationResolvesAmbiguousName reproduces the Melisse example of
// §5.2.2: without spatial augmentation the jazz-label pages crowd the top-k
// and the majority fails; appending the city from the row's address column
// recovers the restaurant annotation.
func TestDisambiguationResolvesAmbiguousName(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("fig4",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Address", Type: table.Location},
	)
	if err := tbl.AppendRow("Melisse", "Ocean Drive, Santa Monica"); err != nil {
		t.Fatal(err)
	}

	plain := f.config()
	resPlain := annotateTable(plain, tbl)
	plainAnn, plainOK := find(resPlain, 1, 1)

	dis := f.config()
	dis.Disambiguate = true
	dis.Gazetteer = f.gaz
	resDis := annotateTable(dis, tbl)
	ann, ok := find(resDis, 1, 1)
	if !ok {
		t.Fatal("disambiguated run did not annotate Melisse")
	}
	if ann.Type != "restaurant" {
		t.Errorf("Melisse annotated %q, want restaurant", ann.Type)
	}
	// The augmented query must do at least as well as the plain one.
	if plainOK && plainAnn.Type == "restaurant" && ann.Score < plainAnn.Score {
		t.Errorf("disambiguation lowered the score: %v -> %v", plainAnn.Score, ann.Score)
	}
	// Address cells are never annotated (Location column filter).
	if _, bad := find(resDis, 1, 2); bad {
		t.Error("Location column cell annotated")
	}
}

func TestTINBaseline(t *testing.T) {
	tbl := table.New("tin",
		table.Column{Header: "Name", Type: table.Text},
	)
	for _, name := range []string{"Louvre Museum", "National Museums of Kenya", "Chez Martin", "The Museum Cafe"} {
		if err := tbl.AppendRow(name); err != nil {
			t.Fatal(err)
		}
	}
	res := TIN(tbl, []string{"museum", "restaurant"})
	if ann, ok := find(res, 1, 1); !ok || ann.Type != "museum" || ann.Score != 1.0 {
		t.Errorf("TIN missed 'Louvre Museum': %+v ok=%v", ann, ok)
	}
	// Stemming lets plural "Museums" match.
	if _, ok := find(res, 2, 1); !ok {
		t.Error("TIN missed plural 'Museums'")
	}
	if _, ok := find(res, 3, 1); ok {
		t.Error("TIN annotated 'Chez Martin' which lacks the type word")
	}
}

func TestTISBaseline(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("tis", table.Column{Header: "Name", Type: table.Text})
	for _, name := range []string{"Musée Lavande", "Chez Martin"} {
		if err := tbl.AppendRow(name); err != nil {
			t.Fatal(err)
		}
	}
	res, err := f.config().TIS(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Museum pages use the word "museum" densely, so TIS should catch
	// the museum; either way scores obey Eq. 1 bounds.
	for _, a := range res.Annotations {
		if a.Score <= 0.5 || a.Score > 1 {
			t.Errorf("TIS score %v outside (0.5, 1]", a.Score)
		}
	}
	if ann, ok := find(res, 1, 1); ok && ann.Type != "museum" {
		t.Errorf("TIS mislabeled museum as %q", ann.Type)
	}
}

func TestCatalogueAnnotator(t *testing.T) {
	cat := &CatalogueAnnotator{Catalogue: map[string]string{
		"musée lavande": "museum",
		"chez martin":   "restaurant",
	}}
	tbl := poiTable(t)
	res := cat.AnnotateTable(tbl, []string{"museum", "restaurant"})
	if len(res.Annotations) != 2 {
		t.Fatalf("catalogue annotated %d cells, want 2 (only known entities)", len(res.Annotations))
	}
	// Unknown entities are invisible to the catalogue — the paper's core
	// argument.
	if _, ok := find(res, 2, 1); ok {
		t.Error("catalogue annotated an unknown entity")
	}
	// Type restriction honoured.
	resM := cat.AnnotateTable(tbl, []string{"museum"})
	for _, a := range resM.Annotations {
		if a.Type != "museum" {
			t.Errorf("type restriction violated: %+v", a)
		}
	}
}

// TestCataloguePropagationFailsOnMixedTables reproduces the introduction's
// argument: column-majority propagation mislabels rows of a mixed-type table
// (Figure 2).
func TestCataloguePropagationFailsOnMixedTables(t *testing.T) {
	cat := &CatalogueAnnotator{
		Catalogue: map[string]string{
			"musée lavande":            "museum",
			"national museum of glass": "museum",
		},
		PropagateColumnType: true,
	}
	tbl := table.New("mixed", table.Column{Header: "Name", Type: table.Text})
	for _, name := range []string{"Musée Lavande", "National Museum of Glass", "Chez Martin", "The Golden Fig"} {
		if err := tbl.AppendRow(name); err != nil {
			t.Fatal(err)
		}
	}
	res := cat.AnnotateTable(tbl, []string{"museum", "restaurant"})
	// The two restaurants get wrongly propagated as museums.
	wrong := 0
	for _, a := range res.Annotations {
		if a.Row >= 3 && a.Type == "museum" {
			wrong++
		}
	}
	if wrong != 2 {
		t.Errorf("propagation mislabels = %d, want 2 (the Figure 2 failure mode)", wrong)
	}
}

func TestAnnotatorDefaultK(t *testing.T) {
	a := Config{}
	if a.k() != 10 {
		t.Errorf("default k = %d, want 10", a.k())
	}
	a.K = 5
	if a.k() != 5 {
		t.Errorf("k = %d, want 5", a.k())
	}
}
