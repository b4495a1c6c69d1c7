package eval

import (
	"sync"
	"testing"
	"time"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/table"
	"repro/internal/world"
)

// labOnce builds one scaled-down lab shared by the integration tests; the
// build is the expensive part (corpus + training), the per-test runs are
// cheap.
var (
	labMu   sync.Mutex
	testLab *Lab
)

func getLab(t *testing.T) *Lab {
	t.Helper()
	if testing.Short() {
		t.Skip("lab integration tests skipped in -short mode")
	}
	labMu.Lock()
	defer labMu.Unlock()
	if testLab == nil {
		testLab = NewLab(LabConfig{
			Seed:              42,
			KBPerType:         45,
			SnippetsPerEntity: 5,
			MaxTrainEntities:  45,
		})
	}
	return testLab
}

func TestLabConstruction(t *testing.T) {
	l := getLab(t)
	t.Parallel()
	if l.Engine.IndexSize() == 0 {
		t.Fatal("empty index")
	}
	if len(l.TrainStats) != len(world.AllTypes) {
		t.Errorf("train stats for %d types, want %d", len(l.TrainStats), len(world.AllTypes))
	}
	for _, s := range l.TrainStats {
		if s.Train == 0 || s.Test == 0 {
			t.Errorf("type %s has empty corpus (%d/%d)", s.Type, s.Train, s.Test)
		}
	}
	if len(l.GFT.Tables) < 30 {
		t.Errorf("GFT dataset too small: %d tables", len(l.GFT.Tables))
	}
	if len(l.Wiki.Tables) != 36 {
		t.Errorf("wiki dataset = %d tables, want 36", len(l.Wiki.Tables))
	}
}

// TestTable2Shape: both classifiers reach high F on held-out snippets, in the
// paper's 0.9+ band for most types.
func TestTable2Shape(t *testing.T) {
	l := getLab(t)
	t.Parallel()
	for _, r := range l.Table2() {
		if r.SVMF < 0.7 {
			t.Errorf("SVM F for %s = %.2f, want >= 0.7", r.Type, r.SVMF)
		}
		if r.BayesF < 0.7 {
			t.Errorf("Bayes F for %s = %.2f, want >= 0.7", r.Type, r.BayesF)
		}
		// 75/25 split.
		frac := float64(r.Train) / float64(r.Train+r.Test)
		if frac < 0.70 || frac > 0.80 {
			t.Errorf("%s split = %.2f, want ~0.75", r.Type, frac)
		}
	}
}

// TestTable1Shape asserts the qualitative findings of §6.2: the full
// algorithm beats the baselines, POI types are easier than people, and the
// people baselines collapse.
func TestTable1Shape(t *testing.T) {
	l := getLab(t)
	t.Parallel()
	rows := l.Table1()
	byType := map[string]Table1Row{}
	for _, r := range rows {
		byType[r.Type] = r
	}

	poi := byType["AVERAGE (poi)"]
	people := byType["AVERAGE (people)"]
	if poi.SVM[2] < 0.75 {
		t.Errorf("POI average SVM F = %.2f, want >= 0.75", poi.SVM[2])
	}
	if people.SVM[2] >= poi.SVM[2] {
		t.Errorf("people (%.2f) should be harder than POI (%.2f)", people.SVM[2], poi.SVM[2])
	}
	// The full algorithm beats both baselines on the POI average.
	if poi.SVM[2] <= poi.TIN[2] || poi.SVM[2] <= poi.TIS[2] {
		t.Errorf("SVM F %.2f must beat TIN %.2f and TIS %.2f", poi.SVM[2], poi.TIN[2], poi.TIS[2])
	}
	// TIN finds nothing for people (names don't contain type words).
	if people.TIN[2] > 0.05 {
		t.Errorf("people TIN F = %.2f, want ~0", people.TIN[2])
	}
	// Per-type rows exist for all 12 types plus 3 averages.
	if len(rows) != len(world.AllTypes)+3 {
		t.Errorf("Table1 rows = %d, want %d", len(rows), len(world.AllTypes)+3)
	}
}

// TestTable3Shape: post-processing must raise the average F substantially
// (the paper's headline ablation), and disambiguation must be reported only
// for spatial types.
func TestTable3Shape(t *testing.T) {
	l := getLab(t)
	t.Parallel()
	rows := l.Table3()
	var plainSum, postSum float64
	for _, r := range rows {
		plainSum += r.SVM
		postSum += r.Post
		spatial := world.HasSpatial(world.Type(r.Type))
		if spatial && r.Disambig < 0 {
			t.Errorf("%s should report a disambiguation F", r.Type)
		}
		if !spatial && r.Disambig >= 0 {
			t.Errorf("%s should not report a disambiguation F", r.Type)
		}
	}
	n := float64(len(rows))
	if postSum/n < plainSum/n+0.05 {
		t.Errorf("post-processing gain too small: %.3f -> %.3f", plainSum/n, postSum/n)
	}
}

// TestWikiComparisonShape: the algorithm is comparable to the catalogue
// comparator on catalogue-friendly data (§6.3's claim).
func TestWikiComparisonShape(t *testing.T) {
	l := getLab(t)
	t.Parallel()
	c := l.WikiComparison()
	if c.OurF < 0.6 {
		t.Errorf("our F on wiki = %.2f, want >= 0.6", c.OurF)
	}
	if c.CatalogueF < 0.6 {
		t.Errorf("catalogue F on wiki = %.2f, want >= 0.6", c.CatalogueF)
	}
	diff := c.OurF - c.CatalogueF
	if diff < -0.15 {
		t.Errorf("our algorithm (F=%.2f) should be comparable to the catalogue (F=%.2f)", c.OurF, c.CatalogueF)
	}
	// The catalogue's recall is bounded by its coverage.
	if c.CatalogueRecall > 0.95 {
		t.Errorf("catalogue recall %.2f should be bounded by KB coverage", c.CatalogueRecall)
	}
}

// TestCatalogueCoverageGapOnGFT: on the GFT dataset (22% coverage) the
// catalogue comparator's recall collapses while the discovery algorithm's
// does not — the paper's central argument (§1).
func TestCatalogueCoverageGapOnGFT(t *testing.T) {
	l := getLab(t)
	t.Parallel()
	types := TypeStrings()
	cat := &annotate.CatalogueAnnotator{Catalogue: l.KB.Catalogue()}
	catPer := ScoreDataset(l.GFT, runDataset(l.GFT, func(tb *table.Table) *annotate.Result {
		return cat.AnnotateTable(tb, types)
	}))
	catMicro := MicroAverage(catPer, types)
	if catMicro.Recall() > 0.4 {
		t.Errorf("catalogue recall on GFT = %.2f, want < 0.4 (coverage gap)", catMicro.Recall())
	}
	ourPer := ScoreDataset(l.GFT, l.memoRun(l.SVM, true, false, annotateK, 0))
	ourMicro := MicroAverage(ourPer, types)
	if ourMicro.Recall() <= catMicro.Recall()+0.2 {
		t.Errorf("discovery recall %.2f should far exceed catalogue recall %.2f",
			ourMicro.Recall(), catMicro.Recall())
	}
}

func TestEfficiencyShape(t *testing.T) {
	l := getLab(t)
	t.Parallel()
	rows := l.Efficiency([]int{10, 50}, 250*time.Millisecond)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Queries == 0 {
			t.Errorf("no queries issued for %d rows", r.Rows)
		}
		// Latency dominates compute (§6.4's observation).
		latencyPart := r.EstSecondsPerRow - r.ComputeSeconds/float64(r.Rows)
		if latencyPart < r.ComputeSeconds/float64(r.Rows) {
			t.Errorf("latency should dominate compute at %d rows", r.Rows)
		}
	}
}

func TestScoreDatasetCounters(t *testing.T) {
	ds := &dataset.Dataset{Gold: dataset.Gold{}}
	ds.Gold.Add("t1", 1, 1, world.Museum)
	ds.Gold.Add("t1", 2, 1, world.Museum)
	results := map[string]*annotate.Result{
		"t1": {Annotations: []annotate.Annotation{
			{Row: 1, Col: 1, Type: "museum", Score: 1},     // correct
			{Row: 2, Col: 1, Type: "restaurant", Score: 1}, // wrong type
			{Row: 3, Col: 1, Type: "museum", Score: 1},     // not in gold
		}},
	}
	per := ScoreDataset(ds, results)
	m := per["museum"]
	if m.Correct != 1 || m.Annotated != 2 || m.Truth != 2 {
		t.Errorf("museum counters = %+v", m)
	}
	r := per["restaurant"]
	if r.Correct != 0 || r.Annotated != 1 || r.Truth != 0 {
		t.Errorf("restaurant counters = %+v", r)
	}
}

func TestAverages(t *testing.T) {
	per := map[string]classify.Metrics{
		"a": {Correct: 8, Annotated: 10, Truth: 10},
		"b": {Correct: 2, Annotated: 10, Truth: 10},
	}
	micro := MicroAverage(per, []string{"a", "b"})
	if micro.Correct != 10 || micro.Annotated != 20 || micro.Truth != 20 {
		t.Errorf("micro = %+v", micro)
	}
	p, r, f := MacroAverage(per, []string{"a", "b"})
	if p != 0.5 || r != 0.5 {
		t.Errorf("macro P/R = %v/%v, want 0.5/0.5", p, r)
	}
	if f <= 0 || f > 1 {
		t.Errorf("macro F = %v", f)
	}
	if p, r, f = MacroAverage(per, nil); p != 0 || r != 0 || f != 0 {
		t.Error("empty macro average should be zero")
	}
}
