package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/annotate"
	"repro/internal/dataset"
	"repro/internal/gazetteer"
	"repro/internal/ingest"
)

// WorldScenario is one adversarial-world axis point of the scenario matrix:
// a named bundle of generator knobs layered over a base LabConfig.
type WorldScenario struct {
	Name           string
	GazScale       int
	POIHomonymRate float64
	DiacriticRate  float64
	ConfuserBoost  int
	// MixedKinds makes the scenario dataset mix POI kinds within shared
	// tables (the Figure 2 trap, densified).
	MixedKinds bool
}

// DefaultWorldScenarios returns the matrix's world axis: the clean baseline
// plus one world per adversarial dimension.
func DefaultWorldScenarios() []WorldScenario {
	return []WorldScenario{
		{Name: "baseline"},
		{Name: "mixed-kinds", MixedKinds: true},
		{Name: "homonym-dense", GazScale: 3, POIHomonymRate: 0.5, ConfuserBoost: 4},
		{Name: "diacritic", DiacriticRate: 0.7},
	}
}

// ScenarioCell is one (world × ingestion) cell of the matrix.
type ScenarioCell struct {
	World  string
	Ingest ingest.Variant

	// Annotation micro-averaged quality over Γ (§6.2 definitions).
	MicroP, MicroR, MicroF float64
	Annotated, Gold        int

	// Geo disambiguation accuracy: chosen LocID vs the universe's gold
	// truth over every address cell with a known location. A cell the
	// pipeline failed to geocode counts as wrong.
	GeoAccuracy          float64
	GeoCorrect, GeoCells int

	// MatchesClean reports whether this cell's annotations are
	// byte-identical to the clean-csv cell of the same world — the
	// messy-ingestion invariant as a reported, golden-locked fact.
	MatchesClean bool
}

// ScenarioMatrix builds one lab per world scenario (base overridden by the
// scenario's knobs), feeds the scenario dataset through every requested
// ingestion variant, and scores each cell: annotation micro-F1 against the
// gold standard and geo disambiguation accuracy against the universe's
// LocID truth. The clean-csv variant is always computed (even when filtered
// out of the report) so every cell can be byte-compared against its clean
// twin.
func ScenarioMatrix(base LabConfig, worlds []WorldScenario, ingests []ingest.Variant) ([]ScenarioCell, error) {
	var out []ScenarioCell
	for _, ws := range worlds {
		cfg := base
		cfg.GazScale = ws.GazScale
		cfg.POIHomonymRate = ws.POIHomonymRate
		cfg.DiacriticRate = ws.DiacriticRate
		cfg.ConfuserBoost = ws.ConfuserBoost
		lab := NewLab(cfg)
		ds := dataset.BuildScenario(lab.World, cfg.Seed+7, dataset.ScenarioOptions{
			MixedKinds: ws.MixedKinds,
		})
		acfg := lab.config(lab.SVM, true, true)

		run := func(v ingest.Variant) (ScenarioCell, string, error) {
			ids, err := reingest(ds, v)
			if err != nil {
				return ScenarioCell{}, "", fmt.Errorf("world %s, variant %s: %w", ws.Name, v, err)
			}
			res := lab.runConfig(ids, acfg)
			// One geo pass per table feeds both the score and the rendering.
			geo := geoAnnotations(ids, acfg)
			return scoreCell(ids, res, geo), renderResults(ids, res, geo), nil
		}

		_, cleanRendered, err := run(ingest.CleanCSV)
		if err != nil {
			return nil, err
		}
		for _, v := range ingests {
			cell, rendered, err := run(v)
			if err != nil {
				return nil, err
			}
			cell.World = ws.Name
			cell.Ingest = v
			cell.MatchesClean = rendered == cleanRendered
			out = append(out, cell)
		}
	}
	return out, nil
}

// reingest pushes every table of the dataset through an ingestion variant
// (encode to the variant's bytes, decode through the tolerant reader and
// Normalize), carrying the gold standards over unchanged — normalization
// preserves cell coordinates for the clean tables the generator emits.
func reingest(ds *dataset.Dataset, v ingest.Variant) (*dataset.Dataset, error) {
	out := &dataset.Dataset{Gold: ds.Gold, GeoGold: ds.GeoGold}
	for _, t := range ds.Tables {
		data, err := ingest.Encode(t, v)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", t.Name, err)
		}
		rt, err := ingest.Decode(data, v, t.Name)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", t.Name, err)
		}
		out.Tables = append(out.Tables, rt)
	}
	return out, nil
}

// geoAnnotations runs the geo stage once over every table of the dataset,
// keyed by table name.
func geoAnnotations(ds *dataset.Dataset, acfg annotate.Config) map[string][]annotate.GeoAnnotation {
	out := make(map[string][]annotate.GeoAnnotation, len(ds.Tables))
	for _, t := range ds.Tables {
		gas, err := acfg.GeoAnnotate(context.Background(), t)
		if err != nil {
			panic(err) // unreachable: background context never cancels
		}
		out[t.Name] = gas
	}
	return out
}

// scoreCell computes a cell's annotation micro metrics and geo accuracy.
func scoreCell(ds *dataset.Dataset, results map[string]*annotate.Result, geo map[string][]annotate.GeoAnnotation) ScenarioCell {
	per := ScoreDataset(ds, results)
	micro := MicroAverage(per, TypeStrings())
	cell := ScenarioCell{
		MicroP:    micro.Precision(),
		MicroR:    micro.Recall(),
		MicroF:    micro.F1(),
		Annotated: micro.Annotated,
		Gold:      micro.Truth,
	}
	for _, t := range ds.Tables {
		gold := ds.GeoGold[t.Name]
		if len(gold) == 0 {
			continue
		}
		cell.GeoCells += len(gold)
		chosen := map[dataset.CellKey]gazetteer.LocID{}
		for _, ga := range geo[t.Name] {
			chosen[dataset.CellKey{Row: ga.Row, Col: ga.Col}] = ga.Loc
		}
		for key, want := range gold {
			if chosen[key] == want {
				cell.GeoCorrect++
			}
		}
	}
	if cell.GeoCells > 0 {
		cell.GeoAccuracy = float64(cell.GeoCorrect) / float64(cell.GeoCells)
	}
	return cell
}

// renderResults serializes a run's full annotation output (type annotations
// and geo annotations, in deterministic order) for the byte-comparison
// against the clean twin.
func renderResults(ds *dataset.Dataset, results map[string]*annotate.Result, geo map[string][]annotate.GeoAnnotation) string {
	var b strings.Builder
	names := make([]string, 0, len(ds.Tables))
	for _, t := range ds.Tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := results[name]
		fmt.Fprintf(&b, "table %s\n", name)
		for _, a := range res.Annotations {
			fmt.Fprintf(&b, "  ann %d %d %s %.6f\n", a.Row, a.Col, a.Type, a.Score)
		}
		for _, ga := range geo[name] {
			fmt.Fprintf(&b, "  geo %d %d %d %s %.6f\n", ga.Row, ga.Col, ga.Loc, ga.Kind, ga.Score)
		}
	}
	return b.String()
}
