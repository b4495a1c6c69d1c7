package annotate

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/table"
)

// addressTable builds a table of "Street, City" addresses spread over many
// distinct cities, the shape whose voting graph decomposes into many
// components (one per city cluster, roughly).
func addressTable(t *testing.T, g *gazetteer.Frozen, rows, cols int) *table.Table {
	t.Helper()
	specs := make([]table.Column, cols)
	for j := range specs {
		specs[j] = table.Column{Header: "Addr", Type: table.Location}
	}
	tbl := table.New("addresses", specs...)
	cities := g.Cities()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < rows; i++ {
		var home gazetteer.LocID
		var streets []gazetteer.LocID
		for len(streets) == 0 {
			home = cities[rng.Intn(len(cities))]
			streets = g.StreetsIn(home)
		}
		vals := make([]string, cols)
		for j := range vals {
			st := streets[rng.Intn(len(streets))]
			vals[j] = g.Name(st) + ", " + g.Name(home)
		}
		if err := tbl.AppendRow(vals...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// deterministic strips the advisory fields of the stage statistics —
// PeakScratchBytes is a high-water mark over concurrently held pooled
// scratch, so it depends on the worker count and the goroutine schedule —
// leaving what a test may compare exactly.
func deterministic(st disambig.Stats) disambig.Stats {
	st.PeakScratchBytes = 0
	return st
}

// TestGeoAnnotateWorkerInvariance resolves a decomposing table at several
// worker counts and requires byte-identical annotations — same cells, same order, same bitwise scores — and identical
// decomposition statistics. The stage sizes its pool from GOMAXPROCS, so that
// is the seam the test varies. The scratch high-water mark is only bounded:
// positive, and within what max-workers components of the largest size can
// hold (per worker a few arrays linear in the component's nodes and edges,
// and L nodes carry at most L² edges).
func TestGeoAnnotateWorkerInvariance(t *testing.T) {
	g := gazetteer.SyntheticScale(42, 6).Freeze()
	tbl := addressTable(t, g, 50, 3)
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []GeoAnnotation
	var wantStats disambig.Stats
	for _, w := range []int{runtime.GOMAXPROCS(0), 1, 2, 8} {
		runtime.GOMAXPROCS(w)
		got, gotStats, err := Config{Gazetteer: g}.For(tbl).GeoAnnotate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantStats = got, gotStats
			if wantStats.Components < 2 {
				t.Fatalf("address table produced %d components; test needs a decomposing workload", wantStats.Components)
			}
		}
		if deterministic(gotStats) != deterministic(wantStats) {
			t.Fatalf("workers=%d: stats %+v, want %+v", w, gotStats, wantStats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: annotations diverge across worker counts", w)
		}
		l := int64(gotStats.LargestComponent)
		if bound := 8 * (1024 + 128*l + 32*l*l); gotStats.PeakScratchBytes <= 0 || gotStats.PeakScratchBytes > bound {
			t.Fatalf("workers=%d: peak scratch %d bytes outside (0, %d] for a largest component of %d nodes", w, gotStats.PeakScratchBytes, bound, l)
		}
	}
}

// TestGeocodeCellsWorkerInvariance: geocoding fans ranges of distinct cell
// texts out over the pool into positional slots, so whatever the worker count
// the interpretations are the sequential loop's — same cells, same order, same
// candidates — also when cells fail to geocode inside and at the edges of
// ranges, when there is no Location column and when the table is one row. A
// context that expires mid-table yields its error and nothing else, and no
// goroutine outlives it.
func TestGeocodeCellsWorkerInvariance(t *testing.T) {
	g := gazetteer.SyntheticScale(42, 6).Freeze()
	cfg := Config{Gazetteer: g}
	leakcheck.Goroutines(t)

	holes := addressTable(t, g, 2000, 4)
	for k := 0; k < holes.NumRows()*holes.NumCols(); k += 7 {
		holes.Rows[k%holes.NumRows()][k/holes.NumRows()] = "99 Nowhere Boulevard, Atlantis"
	}
	plain := table.New("plain", table.Column{Header: "Name", Type: table.Text})
	if err := plain.AppendRow("Paris"); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tbl := range []*table.Table{holes, plain, addressTable(t, g, 1, 4)} {
		var want []disambig.Interpretation
		for _, j := range tbl.ColumnIndexesOfType(table.Location) {
			for i := 1; i <= tbl.NumRows(); i++ {
				if cands := g.Geocode(tbl.Cell(i, j)); len(cands) > 0 {
					want = append(want, disambig.Interpretation{Cell: disambig.CellRef{Row: i, Col: j}, Candidates: cands})
				}
			}
		}
		if cells := len(tbl.ColumnIndexesOfType(table.Location)) * tbl.NumRows(); len(want) > cells-cells/7 {
			t.Fatalf("%s: %d of %d cells geocode; the holes are not in it", tbl.Name, len(want), cells)
		}
		for _, w := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(w)
			got, err := cfg.geocodeCells(context.Background(), tbl, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d workers: %d interpretations diverge from the sequential loop's %d", tbl.Name, w, len(got), len(want))
			}
		}
	}

	// The fan-out polls once per range of distinct texts, not of cells.
	distinct := map[string]bool{}
	for _, row := range holes.Rows {
		for _, cell := range row {
			distinct[cell] = true
		}
	}
	ranges := (len(distinct) + geoRangeCells - 1) / geoRangeCells
	if ranges < 4 {
		t.Fatalf("%d distinct texts make %d ranges; the expiry needs more", len(distinct), ranges)
	}
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		ctx := leakcheck.NewPollContext(ranges / 2)
		if got, err := cfg.geocodeCells(ctx, holes, w); err != context.DeadlineExceeded || got != nil {
			t.Fatalf("%d workers: %d interpretations, error %v under a context expiring mid-table; want none and its error", w, len(got), err)
		}
		if polls := ctx.Polls(); polls >= ranges {
			t.Errorf("%d workers: the context was polled %d times after expiring at poll %d of %d ranges", w, polls, ranges/2, ranges)
		}
	}
}

// TestRunGeoStatsSmallTable checks the stats surface on a small table
// too, and that a run which already resolved its table for Annotate carries
// them through.
func TestRunGeoStatsSmallTable(t *testing.T) {
	cfg := Config{Gazetteer: gazetteer.Synthetic(1).Freeze()}
	ctx := context.Background()
	tbl := geoTestTable(t)
	gas, st, err := cfg.For(tbl).GeoAnnotate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(gas) == 0 || st.Nodes == 0 || st.Components == 0 || st.LargestComponent == 0 {
		t.Fatalf("stats not populated: %+v (%d annotations)", st, len(gas))
	}
	if st.LargestComponent > len(gas)*10 {
		t.Fatalf("implausible largest component %d for %d cells", st.LargestComponent, len(gas))
	}
	resolved := cfg.For(tbl)
	if _, err := resolved.resolution(ctx); err != nil {
		t.Fatal(err)
	}
	gas2, st2, err := resolved.GeoAnnotate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if deterministic(st2) != deterministic(st) {
		t.Fatalf("resolved run's stats %+v, fresh stats %+v", st2, st)
	}
	if !reflect.DeepEqual(gas2, gas) {
		t.Fatal("resolved run's annotations diverge from a fresh resolution")
	}
}

// repeatsTable is a Location table of few texts, each repeated in many rows
// and in every column: real addresses, a blank and a whitespace cell, and an
// address no gazetteer knows, mixed so that every range edge falls somewhere
// different.
func repeatsTable(t *testing.T, g *gazetteer.Frozen) *table.Table {
	t.Helper()
	pool := []string{"", "   ", "99 Nowhere Boulevard, Atlantis"}
	src := addressTable(t, g, 12, 1)
	for _, row := range src.Rows {
		pool = append(pool, row[0])
	}
	tbl := table.New("repeats",
		table.Column{Header: "A", Type: table.Location},
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "B", Type: table.Location},
		table.Column{Header: "C", Type: table.Location})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		if err := tbl.AppendRow(pool[rng.Intn(len(pool))], "x", pool[rng.Intn(len(pool))], pool[(i*5)%len(pool)]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// sequentialInterps is geocodeCells as a per-cell sequential loop: one lookup
// per cell, column-major.
func sequentialInterps(g *gazetteer.Frozen, tbl *table.Table) []disambig.Interpretation {
	var out []disambig.Interpretation
	for _, j := range tbl.ColumnIndexesOfType(table.Location) {
		for i := 1; i <= tbl.NumRows(); i++ {
			if cands := g.Geocode(tbl.Cell(i, j)); len(cands) > 0 {
				out = append(out, disambig.Interpretation{Cell: disambig.CellRef{Row: i, Col: j}, Candidates: cands})
			}
		}
	}
	return out
}

// TestGeocodeRepeatedTexts: a table whose cells repeat a few texts — across
// rows and columns, blank and ungeocodable ones included — geocodes to the
// per-cell sequential loop's interpretations at every worker count, with one
// gazetteer lookup per distinct text and one shared candidate slice per text;
// and GeoAnnotate answers what geocoding every cell, then voting and rendering,
// answers.
func TestGeocodeRepeatedTexts(t *testing.T) {
	g := gazetteer.SyntheticScale(42, 6).Freeze()
	cfg := Config{Gazetteer: g}
	tbl := repeatsTable(t, g)
	want := sequentialInterps(g, tbl)
	distinct := map[string]bool{}
	for _, row := range tbl.Rows {
		distinct[row[0]], distinct[row[2]], distinct[row[3]] = true, true, true
	}
	if len(want) >= 900-900/10 || len(want) < 900/2 || len(distinct) > 15 {
		t.Fatalf("%d of 900 cells geocode, %d distinct texts: the table does not repeat texts with holes", len(want), len(distinct))
	}
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, w := range []int{1, 2, 8} {
			rec := obs.New()
			got, err := cfg.geocodeCells(obs.With(ctx, rec), tbl, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS %d, %d workers: %d interpretations diverge from the per-cell loop's %d", procs, w, len(got), len(want))
			}
			if calls := rec.Work()[obs.GeocodeCalls]; calls != int64(len(distinct)) {
				t.Errorf("GOMAXPROCS %d, %d workers: %d lookups for %d distinct texts", procs, w, calls, len(distinct))
			}
			shared := map[string]*gazetteer.LocID{}
			for _, it := range got {
				text, first := tbl.Cell(it.Cell.Row, it.Cell.Col), &it.Candidates[0]
				if p, ok := shared[text]; ok && p != first {
					t.Fatalf("text %q: cells hold separate candidate slices", text)
				}
				shared[text] = first
			}
		}
	}

	// The per-cell path end to end: geocode every cell, vote, render.
	ref := cfg.For(tbl)
	choices, stats, err := disambig.ResolvePositional(ctx, want, g, disambig.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref.geo = &geoResolution{interps: want, choices: choices, stats: stats}
	wantGas, _, err := ref.GeoAnnotate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotGas, err := cfg.GeoAnnotate(ctx, tbl)
	if err != nil || !reflect.DeepEqual(gotGas, wantGas) {
		t.Fatalf("GeoAnnotate: %d annotations (error %v), the per-cell path %d, or they differ", len(gotGas), err, len(wantGas))
	}
}
