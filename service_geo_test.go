package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"
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
