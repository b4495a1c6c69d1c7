package repro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/world"
)

func TestGeocodeValidation(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	var reqErr *RequestError
	for name, req := range map[string]*GeocodeRequest{
		"nil request": nil,
		"nil table":   {},
		"no columns":  {Table: &Table{Name: "empty"}},
	} {
		if _, err := svc.Geocode(ctx, req); !errors.As(err, &reqErr) {
			t.Errorf("%s: error = %v, want *RequestError", name, err)
		}
	}
}

func TestGeocodeService(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	resp, err := svc.Geocode(context.Background(), &GeocodeRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.LocationCells != tbl.NumRows() {
		t.Errorf("LocationCells = %d, want %d (one Location column)", resp.Stats.LocationCells, tbl.NumRows())
	}
	if resp.Stats.Resolved != len(resp.Annotations) {
		t.Errorf("Resolved = %d but %d annotations", resp.Stats.Resolved, len(resp.Annotations))
	}
	if len(resp.Annotations) == 0 {
		t.Fatal("no geo annotations for fully-qualified addresses")
	}
	ambiguous := 0
	for _, ga := range resp.Annotations {
		if ga.Col != 2 {
			t.Errorf("annotation outside the Location column: %+v", ga)
		}
		if ga.Kind != "street" {
			t.Errorf("full street address resolved to kind %q: %+v", ga.Kind, ga)
		}
		if ga.Location == "" || ga.Score <= 0 {
			t.Errorf("degenerate annotation %+v", ga)
		}
		if ga.Candidates > 1 {
			ambiguous++
		}
	}
	if resp.Stats.Ambiguous != ambiguous {
		t.Errorf("Stats.Ambiguous = %d, want %d", resp.Stats.Ambiguous, ambiguous)
	}
	// The stage is deterministic and read-only: a second call agrees.
	again, err := svc.Geocode(context.Background(), &GeocodeRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Annotations, again.Annotations) {
		t.Error("repeated Geocode calls disagree")
	}
}

func TestGeocodeCancelled(t *testing.T) {
	svc := testService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Geocode(ctx, &GeocodeRequest{Table: testTable(t, svc)}); !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

// TestGeocodeBatch: the batch call mirrors AnnotateBatch's semantics —
// responses in request order, each identical to a standalone Geocode of the
// same table.
func TestGeocodeBatch(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	ctx := context.Background()
	single, err := svc.Geocode(ctx, &GeocodeRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*GeocodeRequest{{Table: tbl}, {Table: tbl}, {Table: tbl}}
	resps, err := svc.GeocodeBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	for i, resp := range resps {
		if !reflect.DeepEqual(resp.Annotations, single.Annotations) {
			t.Errorf("response %d diverges from the standalone geocode", i)
		}
		// PeakScratchBytes is a schedule-dependent high-water mark: advisory,
		// outside the identity guarantee.
		resp.Stats.PeakScratchBytes = single.Stats.PeakScratchBytes
		if resp.Stats != single.Stats {
			t.Errorf("response %d stats = %+v, want %+v", i, resp.Stats, single.Stats)
		}
	}
}

// TestGeocodeBatchValidation: every request is validated before ANY work
// starts, and the error names the failing request's index.
func TestGeocodeBatchValidation(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	var reqErr *RequestError
	_, err := svc.GeocodeBatch(context.Background(), []*GeocodeRequest{
		{Table: tbl}, nil, {Table: tbl},
	})
	if !errors.As(err, &reqErr) {
		t.Fatalf("error = %v, want *RequestError", err)
	}
	if want := "request 1: "; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Errorf("error %q does not name request 1", err)
	}
}

func TestGeocodeBatchCancelled(t *testing.T) {
	svc := testService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.GeocodeBatch(ctx, []*GeocodeRequest{{Table: testTable(t, svc)}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

// TestAnnotateGeocodeToggle: the Geocode request flag adds GeoAnnotations to
// the annotate response — identical to the standalone endpoint's — and its
// absence keeps the response byte-compatible with the pre-geo wire format.
func TestAnnotateGeocodeToggle(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	ctx := context.Background()

	plain, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if plain.GeoAnnotations != nil {
		t.Errorf("GeoAnnotations present without the Geocode flag: %+v", plain.GeoAnnotations)
	}

	withGeo, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl, Geocode: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(withGeo.GeoAnnotations) == 0 {
		t.Fatal("Geocode flag produced no GeoAnnotations")
	}
	if !reflect.DeepEqual(plain.Annotations, withGeo.Annotations) {
		t.Error("the Geocode flag changed the cell annotations")
	}
	standalone, err := svc.Geocode(ctx, &GeocodeRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withGeo.GeoAnnotations, standalone.Annotations) {
		t.Errorf("annotate-with-geocode and standalone geocode disagree:\n %+v\n %+v",
			withGeo.GeoAnnotations, standalone.Annotations)
	}
}

// locationTable is a table of one Location column holding the given cells:
// pre-processing rules the column out, so a request over it issues no query and
// every context poll it makes beyond the fixed handful is the geo stage's.
func locationTable(t *testing.T, name string, cells []string) *Table {
	t.Helper()
	tbl := &Table{Name: name, Columns: []Column{{Header: "Where", Type: Location}}}
	for _, c := range cells {
		if err := tbl.AppendRow(c); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// geoTables returns a Location-only table of the universe's addresses, which
// geocode and decompose into many components, and one of as many cells of
// which none geocodes.
func geoTables(t *testing.T, svc *Service) (addresses, barren *Table) {
	t.Helper()
	w := svc.Lab().World
	var addrs, junk []string
	for _, typ := range []world.Type{world.Museum, world.Restaurant} {
		for _, e := range w.OfType(typ) {
			if len(addrs) == 256 {
				break
			}
			addrs = append(addrs, e.Address(w.Gaz).Format())
			junk = append(junk, "nowhere at all")
		}
	}
	return locationTable(t, "addresses", addrs), locationTable(t, "barren", junk)
}

// TestRequestResolvesGeographyOnce: whatever a request asks for — the trace,
// the geo annotations, both — its table is geocoded and voted on once, also
// when nothing geocodes. The probe is the context: geocoding polls it every 64
// distinct cell texts, the vote before every component and every iteration, so the polls a
// request makes beyond those of its twin with the geo stage off, measured in
// units of one standalone Geocode of the same table, count the passes.
func TestRequestResolvesGeographyOnce(t *testing.T) {
	svc := testService(t)
	addresses, barren := geoTables(t, svc)
	polls := func(run func(ctx context.Context) error) int {
		ctx := leakcheck.NewPollContext(0)
		if err := run(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.Polls()
	}
	for _, tbl := range []*Table{addresses, barren} {
		pass := polls(func(ctx context.Context) error {
			_, err := svc.Geocode(ctx, &GeocodeRequest{Table: tbl})
			return err
		})
		if pass < 4 {
			t.Fatalf("%s: a geocode polls the context %d times; the probe needs more", tbl.Name, pass)
		}
		for _, req := range []AnnotateRequest{{Trace: true}, {Geocode: true}, {Trace: true, Geocode: true}} {
			req.Table = tbl
			off := AnnotateRequest{Table: tbl, Trace: req.Trace, Disambiguate: ToggleOff}
			extra := polls(func(ctx context.Context) error { _, err := svc.Annotate(ctx, &req); return err }) -
				polls(func(ctx context.Context) error { _, err := svc.Annotate(ctx, &off); return err })
			if extra < pass/2 || extra > pass*3/2 {
				t.Errorf("%s, trace=%v geocode=%v: %d polls beyond the geo-less twin, one pass is %d: the table was resolved %.1f times, want once",
					tbl.Name, req.Trace, req.Geocode, extra, pass, float64(extra)/float64(pass))
			}
		}
	}
}

// TestGeoExpiredContext expires the context at its N-th poll across a whole
// Geocode and a whole Annotate with Geocode set: each returns the complete
// response or the context's error, never a response over a partly scored table,
// and leaves no goroutine behind. GeocodeBatch runs its requests under a
// context derived from the caller's, whose polls the caller's does not see, so
// there the caller's context is expired from outside, by its deadline.
func TestGeoExpiredContext(t *testing.T) {
	svc := testService(t)
	leakcheck.Goroutines(t)
	addresses, _ := geoTables(t, svc)
	want, err := svc.Geocode(context.Background(), &GeocodeRequest{Table: addresses})
	if err != nil {
		t.Fatal(err)
	}
	checkGeo := func(what string, got []GeoAnnotation, err error) {
		t.Helper()
		switch {
		case err == nil && !reflect.DeepEqual(got, want.Annotations):
			t.Fatalf("%s: succeeded with annotations that differ from the uninterrupted run's", what)
		case err != nil && (!errors.Is(err, context.DeadlineExceeded) || got != nil):
			t.Fatalf("%s: error %v with %d annotations, want the context's error alone", what, err, len(got))
		}
	}
	live := leakcheck.NewPollContext(0)
	if _, err := svc.Annotate(live, &AnnotateRequest{Table: addresses, Geocode: true}); err != nil {
		t.Fatal(err)
	}
	total, expired := live.Polls(), 0
	for n := 1; n <= total; n += 1 + total/150 {
		resp, err := svc.Geocode(leakcheck.NewPollContext(n), &GeocodeRequest{Table: addresses})
		var got []GeoAnnotation
		if resp != nil {
			got = resp.Annotations
		}
		checkGeo(fmt.Sprintf("Geocode, expiry at poll %d", n), got, err)

		aresp, err := svc.Annotate(leakcheck.NewPollContext(n), &AnnotateRequest{Table: addresses, Geocode: true})
		got = nil
		if aresp != nil {
			got = aresp.GeoAnnotations
		}
		checkGeo(fmt.Sprintf("Annotate, expiry at poll %d", n), got, err)
		if err != nil {
			expired++
		}
	}
	if expired == 0 {
		t.Errorf("no expiry within the request's %d polls failed it", total)
	}

	reqs := []*GeocodeRequest{{Table: addresses}, {Table: addresses}, {Table: addresses}, {Table: addresses}}
	for _, d := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond, time.Minute} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		resps, err := svc.GeocodeBatch(ctx, reqs)
		cancel()
		if err != nil {
			checkGeo(fmt.Sprintf("GeocodeBatch, deadline %v", d), nil, err)
			if resps != nil {
				t.Fatalf("GeocodeBatch, deadline %v: responses alongside error %v", d, err)
			}
			continue
		}
		for i, resp := range resps {
			checkGeo(fmt.Sprintf("GeocodeBatch, deadline %v, response %d", d, i), resp.Annotations, nil)
		}
	}
}
