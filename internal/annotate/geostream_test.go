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

// TestGeocodeCellsWorkerInvariance: geocoding fans cell ranges out over the
// pool into positional slots, so whatever the worker count the interpretations
// are the sequential loop's — same cells, same order, same candidates — also
// when cells fail to geocode inside and at the edges of ranges, when there is
// no Location column and when the table is one row. A context that expires
// mid-table yields its error and nothing else, and no goroutine outlives it.
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

	ranges := (holes.NumRows()*holes.NumCols() + geoRangeCells - 1) / geoRangeCells
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
