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

// TestPrepareGeo: a prepared config shares one resolution between
// resolveRowCities and GeoAnnotate without changing either's output, and a
// precomputation bound to one table never leaks into runs over another.
func TestPrepareGeo(t *testing.T) {
	cfg := Config{Gazetteer: gazetteer.Synthetic(1).Freeze()}
	tbl := geoTestTable(t)
	ctx := context.Background()

	prepared := mustPrepare(t, cfg, tbl)
	if prepared.geo == nil || prepared.geo.table != tbl {
		t.Fatal("PrepareGeo did not bind a resolution to the table")
	}
	want, err := cfg.GeoAnnotate(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prepared.GeoAnnotate(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prepared GeoAnnotate diverges:\n got %+v\nwant %+v", got, want)
	}

	// Row cities read the resolution in column-major order, so when a row's
	// Location columns resolve to different cities the lowest column wins —
	// on every run, fresh or prepared.
	conflict := table.New("conflict",
		table.Column{Header: "Branch", Type: table.Location},
		table.Column{Header: "HQ", Type: table.Location},
	)
	if err := conflict.AppendRow("College Park", "Washington, D.C."); err != nil {
		t.Fatal(err)
	}
	cfg.Disambiguate = true
	for _, tc := range []struct {
		name string
		tbl  *table.Table
		want map[int]string
	}{
		{"coherent columns", tbl, map[int]string{1: "Washington", 2: "College Park", 3: "Paris"}},
		{"conflicting columns", conflict, map[int]string{1: "College Park"}},
	} {
		prepared := mustPrepare(t, cfg, tc.tbl)
		for run := 0; run < 50; run++ {
			for _, c := range []Config{cfg, prepared} {
				got, err := c.resolveRowCities(ctx, tc.tbl)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s, run %d: row cities %v, want %v", tc.name, run, got, tc.want)
				}
			}
		}
	}

	// A different table must resolve freshly, not reuse the binding.
	other := table.New("other", table.Column{Header: "Where", Type: table.Location})
	if err := other.AppendRow("Washington, D.C."); err != nil {
		t.Fatal(err)
	}
	fromPrepared, err := prepared.GeoAnnotate(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cfg.GeoAnnotate(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromPrepared, fresh) {
		t.Errorf("prepared config leaked its binding into another table:\n got %+v\nwant %+v", fromPrepared, fresh)
	}
}

// mustPrepare is PrepareGeo under a background context for tests.
func mustPrepare(t *testing.T, c Config, tbl *table.Table) Config {
	t.Helper()
	prepared, err := c.PrepareGeo(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	return prepared
}

// TestGeoAnnotateCancelledMidResolution: cancellation between geocoded
// cells aborts the stage with ctx.Err(), not a truncated result.
func TestGeoAnnotateCancelledMidResolution(t *testing.T) {
	cfg := Config{Gazetteer: gazetteer.Synthetic(1).Freeze()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cfg.PrepareGeo(ctx, geoTestTable(t)); err != context.Canceled {
		t.Errorf("cancelled PrepareGeo error = %v, want context.Canceled", err)
	}
}
