package annotate

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/table"
)

// geoTestTable builds a Figure 7-shaped table: an address column and a city
// column, both Location-typed, whose correct interpretations cohere along
// rows, plus a Text column the geo stage must ignore.
func geoTestTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("geo",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Address", Type: table.Location},
		table.Column{Header: "City", Type: table.Location},
	)
	for _, row := range [][]string{
		{"White House", "1600 Pennsylvania Avenue", "Washington"},
		{"Dorm", "8 Wofford Lane", "College Park"},
		{"Diner", "2 Clarksville Street", "Paris"},
	} {
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestGeoAnnotate(t *testing.T) {
	cfg := Config{Gazetteer: gazetteer.Synthetic(1).Freeze()}
	tbl := geoTestTable(t)

	gas, err := cfg.GeoAnnotate(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(gas) != 6 {
		t.Fatalf("got %d geo annotations, want 6 (both Location columns, 3 rows): %+v", len(gas), gas)
	}
	// Column-major deterministic order.
	for k := 1; k < len(gas); k++ {
		prev, cur := gas[k-1], gas[k]
		if cur.Col < prev.Col || (cur.Col == prev.Col && cur.Row <= prev.Row) {
			t.Fatalf("annotations not in column-major order: %+v before %+v", prev, cur)
		}
	}
	byCell := map[[2]int]GeoAnnotation{}
	for _, ga := range gas {
		byCell[[2]int{ga.Row, ga.Col}] = ga
		if ga.Location == "" || ga.Kind == "" {
			t.Errorf("annotation %+v missing location or kind", ga)
		}
		if ga.Candidates < 1 {
			t.Errorf("annotation %+v has no candidates", ga)
		}
		if ga.Score <= 0 || ga.Score > 1 {
			t.Errorf("annotation %+v has out-of-range score", ga)
		}
	}
	for i := 1; i <= 3; i++ {
		street, city := byCell[[2]int{i, 2}], byCell[[2]int{i, 3}]
		if street.Kind != "street" {
			t.Errorf("row %d address resolved to kind %q, want street (%+v)", i, street.Kind, street)
		}
		if city.Kind != "city" {
			t.Errorf("row %d city cell resolved to kind %q, want city (%+v)", i, city.Kind, city)
		}
		if street.Candidates < 2 || city.Candidates < 2 {
			t.Errorf("row %d should be ambiguous on both columns: %+v / %+v", i, street, city)
		}
	}
	// The paper's headline case: the street+city row coherence picks
	// Washington, D.C. over the other Washingtons for the city cell.
	if wash := byCell[[2]int{1, 3}]; wash.City != "Washington" {
		t.Errorf("city cell of row 1 = %+v, want a Washington", wash)
	}
}

// TestGeoAnnotateCoherence pins the cross-column voting: the street cell's
// containing city and the city cell's resolution agree on every row.
func TestGeoAnnotateCoherence(t *testing.T) {
	cfg := Config{Gazetteer: gazetteer.Synthetic(1).Freeze()}
	gas, err := cfg.GeoAnnotate(context.Background(), geoTestTable(t))
	if err != nil {
		t.Fatal(err)
	}
	cityOfRow := map[int]string{}
	for _, ga := range gas {
		if ga.Col == 3 {
			cityOfRow[ga.Row] = ga.City
		}
	}
	for _, ga := range gas {
		if ga.Col != 2 {
			continue
		}
		if want := cityOfRow[ga.Row]; ga.City != want {
			t.Errorf("row %d: street resolved into city %q, city cell resolved to %q (%+v)", ga.Row, ga.City, want, ga)
		}
	}
}

func TestGeoAnnotateEdgeCases(t *testing.T) {
	g := gazetteer.Synthetic(1).Freeze()
	ctx := context.Background()

	// No gazetteer configured: the stage is a no-op.
	if gas, err := (Config{}).GeoAnnotate(ctx, geoTestTable(t)); err != nil || gas != nil {
		t.Errorf("no-gazetteer GeoAnnotate = (%v, %v), want (nil, nil)", gas, err)
	}

	// No Location columns.
	plain := table.New("plain", table.Column{Header: "Name", Type: table.Text})
	if err := plain.AppendRow("Paris"); err != nil {
		t.Fatal(err)
	}
	if gas, err := (Config{Gazetteer: g}).GeoAnnotate(ctx, plain); err != nil || gas != nil {
		t.Errorf("no-location-column GeoAnnotate = (%v, %v), want (nil, nil)", gas, err)
	}

	// Ungeocodable cells are omitted.
	partial := table.New("partial", table.Column{Header: "Where", Type: table.Location})
	for _, cell := range []string{"99 Nowhere Boulevard, Atlantis", "Washington, D.C.", ""} {
		if err := partial.AppendRow(cell); err != nil {
			t.Fatal(err)
		}
	}
	gas, err := (Config{Gazetteer: g}).GeoAnnotate(ctx, partial)
	if err != nil {
		t.Fatal(err)
	}
	if len(gas) != 1 || gas[0].Row != 2 || gas[0].Kind != "city" {
		t.Errorf("partial table geo annotations = %+v, want exactly the Washington cell", gas)
	}

	// Cancellation.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := (Config{Gazetteer: g}).GeoAnnotate(cancelled, geoTestTable(t)); err != context.Canceled {
		t.Errorf("cancelled GeoAnnotate error = %v, want context.Canceled", err)
	}
}

// TestRunSharesResolution: a run's row cities and GeoAnnotate read one
// resolution without changing either's output — also when nothing geocodes,
// which is a resolution like any other — and a run over one table knows
// nothing of another.
func TestRunSharesResolution(t *testing.T) {
	cfg := Config{Gazetteer: gazetteer.Synthetic(1).Freeze(), Disambiguate: true}
	tbl := geoTestTable(t)
	ctx := context.Background()

	run := cfg.For(tbl)
	if _, err := run.rowCities(ctx); err != nil {
		t.Fatal(err)
	}
	first := run.geo
	if first == nil || len(first.interps) != 6 {
		t.Fatalf("rowCities left the run's resolution %+v, want the table's 6 geocoded cells", first)
	}
	want, err := cfg.GeoAnnotate(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := run.GeoAnnotate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if run.geo != first {
		t.Error("GeoAnnotate resolved the table again instead of reading the run's resolution")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shared-resolution GeoAnnotate diverges:\n got %+v\nwant %+v", got, want)
	}

	// Nothing geocodes: the empty resolution is kept too.
	barren := table.New("barren", table.Column{Header: "Where", Type: table.Location})
	if err := barren.AppendRow("no such place anywhere"); err != nil {
		t.Fatal(err)
	}
	run = cfg.For(barren)
	if cities, err := run.rowCities(ctx); err != nil || len(cities) != 0 {
		t.Fatalf("barren table: row cities %v, error %v", cities, err)
	}
	first = run.geo
	if gas, _, err := run.GeoAnnotate(ctx); err != nil || gas != nil || first == nil || run.geo != first {
		t.Errorf("barren table: annotations %v, error %v, resolution kept = %v", gas, err, first != nil && run.geo == first)
	}

	// Row cities read the resolution in column-major order, so when a row's
	// Location columns resolve to different cities the lowest column wins —
	// on every run.
	conflict := table.New("conflict",
		table.Column{Header: "Branch", Type: table.Location},
		table.Column{Header: "HQ", Type: table.Location},
	)
	if err := conflict.AppendRow("College Park", "Washington, D.C."); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tbl  *table.Table
		want map[int]string
	}{
		{"coherent columns", tbl, map[int]string{1: "Washington", 2: "College Park", 3: "Paris"}},
		{"conflicting columns", conflict, map[int]string{1: "College Park"}},
	} {
		shared := cfg.For(tc.tbl)
		for i := 0; i < 50; i++ {
			for _, r := range []*Run{cfg.For(tc.tbl), shared} {
				got, err := r.rowCities(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s, run %d: row cities %v, want %v", tc.name, i, got, tc.want)
				}
			}
		}
	}
}

// TestGeoAnnotateCancelledMidResolution: cancellation between geocoded
// cells aborts the stage with ctx.Err(), not a truncated result, and the run
// keeps nothing of the failed pass.
func TestGeoAnnotateCancelledMidResolution(t *testing.T) {
	cfg := Config{Gazetteer: gazetteer.Synthetic(1).Freeze()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := cfg.For(geoTestTable(t))
	if res, err := run.resolution(ctx); err != context.Canceled || res != nil || run.geo != nil {
		t.Errorf("cancelled resolution = %v, error %v, kept %v; want nil, context.Canceled, nil", res, err, run.geo)
	}
}
