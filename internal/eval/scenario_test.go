package eval

import (
	"context"
	"testing"

	"repro/internal/annotate"
	"repro/internal/dataset"
	"repro/internal/ingest"
)

// TestMessyIngestionDifferential is the end-to-end form of the ingestion
// invariant: every messy variant of the scenario dataset — ragged CSV, NFD
// CSV, tidy HTML, messy HTML with merged cells — must annotate and geocode
// byte-identically to its clean-CSV twin, at parallelism 1 and 4. Under
// -race this also drives the batch worker pool over normalized tables.
func TestMessyIngestionDifferential(t *testing.T) {
	l := getLab(t)
	t.Parallel()

	ds := dataset.BuildScenario(l.World, l.Cfg.Seed+7, dataset.ScenarioOptions{MixedKinds: true})
	acfg := l.config(l.SVM, true, true)

	render := func(v ingest.Variant, parallelism int) string {
		ids, err := reingest(ds, v)
		if err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
		acfg := acfg
		acfg.Parallelism = parallelism
		batch, err := acfg.AnnotateBatch(context.Background(), ids.Tables)
		if err != nil {
			t.Fatalf("variant %s, parallelism %d: %v", v, parallelism, err)
		}
		res := make(map[string]*annotate.Result, len(ids.Tables))
		for i, tbl := range ids.Tables {
			res[tbl.Name] = batch[i]
		}
		return renderResults(ids, res, geoAnnotations(ids, acfg))
	}

	for _, parallelism := range []int{1, 4} {
		clean := render(ingest.CleanCSV, parallelism)
		if clean == "" {
			t.Fatalf("parallelism %d: empty clean render", parallelism)
		}
		for _, v := range ingest.Variants() {
			if v == ingest.CleanCSV {
				continue
			}
			if got := render(v, parallelism); got != clean {
				t.Errorf("parallelism %d: variant %s diverged from clean-csv twin", parallelism, v)
			}
		}
	}
}

// TestScenarioMatrixSingleCell runs one adversarial cell of the matrix
// end-to-end against the shared lab's scale and sanity-checks the scoring
// plumbing without the cost of a per-world lab build.
func TestScenarioMatrixSingleCell(t *testing.T) {
	l := getLab(t)
	t.Parallel()

	ds := dataset.BuildScenario(l.World, l.Cfg.Seed+7, dataset.ScenarioOptions{})
	if len(ds.Tables) == 0 {
		t.Fatal("scenario dataset has no tables")
	}
	if len(ds.GeoGold) == 0 {
		t.Fatal("scenario dataset has no geo gold truth")
	}
	acfg := l.config(l.SVM, true, true)
	res := l.runConfig(ds, acfg)
	cell := scoreCell(ds, res, geoAnnotations(ds, acfg))
	if cell.Gold == 0 || cell.Annotated == 0 {
		t.Fatalf("degenerate annotation counters: %+v", cell)
	}
	if cell.MicroF <= 0 || cell.MicroF > 1 {
		t.Errorf("micro-F out of range: %v", cell.MicroF)
	}
	if cell.GeoCells == 0 {
		t.Fatal("no geo cells scored")
	}
	if cell.GeoAccuracy <= 0 || cell.GeoAccuracy > 1 {
		t.Errorf("geo accuracy out of range: %v (correct %d / cells %d)", cell.GeoAccuracy, cell.GeoCorrect, cell.GeoCells)
	}
}
