package server

// Handler-level tests of POST /v1/geocode and the annotate request's geocode
// flag, including the wire goldens that regression-lock both JSON shapes.
// Regenerate with:
//
//	go test ./internal/server -run TestGolden -update

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/table"
)

func TestGeocodeWire(t *testing.T) {
	h := testServer(t, Config{}).Handler()
	rec := post(h, "/v1/geocode", mustMarshal(t, GeocodeRequestJSON{Table: tableJSON(t)}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.String())
	}
	var resp GeocodeResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Annotations) == 0 {
		t.Fatal("no geo annotations for the canonical table")
	}
	if resp.Stats.Resolved != len(resp.Annotations) {
		t.Errorf("stats.resolved = %d, want %d", resp.Stats.Resolved, len(resp.Annotations))
	}
	if resp.Stats.LocationCells < resp.Stats.Resolved {
		t.Errorf("stats inconsistent: %+v", resp.Stats)
	}
	for _, ga := range resp.Annotations {
		if ga.Location == "" || ga.Kind == "" || ga.Score <= 0 {
			t.Errorf("degenerate wire annotation %+v", ga)
		}
	}
}

func TestGeocodeValidationWire(t *testing.T) {
	s := testServer(t, Config{MaxCells: 4})
	h := s.Handler()
	cases := []struct {
		name     string
		body     []byte
		status   int
		wantCode string
	}{
		{"invalid json", []byte("{"), http.StatusBadRequest, "invalid_json"},
		{"unknown field", []byte(`{"tabel": {}}`), http.StatusBadRequest, "invalid_json"},
		{"missing table", mustMarshal(t, GeocodeRequestJSON{}), http.StatusBadRequest, "invalid_request"},
		{"bad table", []byte(`{"table": {"columns": []}}`), http.StatusBadRequest, "invalid_request"},
		{"too large", mustMarshal(t, GeocodeRequestJSON{Table: tableJSON(t)}), http.StatusRequestEntityTooLarge, "table_too_large"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := post(h, "/v1/geocode", c.body)
			if rec.Code != c.status {
				t.Fatalf("status = %d, want %d\n%s", rec.Code, c.status, rec.Body.String())
			}
			if e := decodeError(t, rec); e.Code != c.wantCode {
				t.Errorf("error code = %q, want %q", e.Code, c.wantCode)
			}
		})
	}
}

// TestAnnotateGeocodeWire: the geocode flag rides the annotate route and
// returns the same geo annotations as the standalone endpoint.
func TestAnnotateGeocodeWire(t *testing.T) {
	h := testServer(t, Config{}).Handler()
	tblJSON := tableJSON(t)

	plain := post(h, "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tblJSON}))
	if plain.Code != http.StatusOK {
		t.Fatalf("status = %d", plain.Code)
	}
	if bytes.Contains(plain.Body.Bytes(), []byte("geo_annotations")) {
		t.Error("geo_annotations present without the geocode flag")
	}

	rec := post(h, "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tblJSON, Geocode: true}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.String())
	}
	var withGeo AnnotateResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &withGeo); err != nil {
		t.Fatal(err)
	}
	if len(withGeo.GeoAnnotations) == 0 {
		t.Fatal("geocode flag produced no geo_annotations")
	}
	gRec := post(h, "/v1/geocode", mustMarshal(t, GeocodeRequestJSON{Table: tblJSON}))
	var standalone GeocodeResponseJSON
	if err := json.Unmarshal(gRec.Body.Bytes(), &standalone); err != nil {
		t.Fatal(err)
	}
	if len(standalone.Annotations) != len(withGeo.GeoAnnotations) {
		t.Fatalf("route disagreement: %d vs %d geo annotations", len(standalone.Annotations), len(withGeo.GeoAnnotations))
	}
	for i := range standalone.Annotations {
		if standalone.Annotations[i] != withGeo.GeoAnnotations[i] {
			t.Errorf("annotation %d differs across routes: %+v vs %+v", i, standalone.Annotations[i], withGeo.GeoAnnotations[i])
		}
	}
}

// goldenCompare locks one response body byte-for-byte (timing masked).
func goldenCompare(t *testing.T, name string, body []byte) {
	t.Helper()
	got := timingRe.ReplaceAll(body, []byte(`"$1": <wall-clock>`))
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, regenerate with -update and review the diff.", got, want)
	}
}

// TestGoldenGeocodeWire locks the /v1/geocode JSON response byte-for-byte.
func TestGoldenGeocodeWire(t *testing.T) {
	h := testServer(t, Config{}).Handler()
	rec := post(h, "/v1/geocode", mustMarshal(t, GeocodeRequestJSON{Table: tableJSON(t)}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.String())
	}
	goldenCompare(t, "service_geocode.golden", rec.Body.Bytes())
}

// TestGoldenAnnotateGeocodeWire locks the annotate response with the geocode
// flag set, so the geo_annotations block cannot drift unreviewed.
func TestGoldenAnnotateGeocodeWire(t *testing.T) {
	h := testServer(t, Config{}).Handler()
	rec := post(h, "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t), Geocode: true}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.String())
	}
	goldenCompare(t, "service_annotate_geocode.golden", rec.Body.Bytes())
}

// TestGeocodeBatchWire: each /v1/geocode:batch entry is identical to a
// standalone /v1/geocode response over the same table, in request order.
func TestGeocodeBatchWire(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	tbl := tableJSON(t)
	single := post(h, "/v1/geocode", mustMarshal(t, GeocodeRequestJSON{Table: tbl}))
	if single.Code != http.StatusOK {
		t.Fatalf("geocode status = %d", single.Code)
	}
	var want GeocodeResponseJSON
	if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	rec := post(h, "/v1/geocode:batch", mustMarshal(t, GeocodeBatchRequestJSON{
		Requests: []GeocodeRequestJSON{{Table: tbl}, {Table: tbl}},
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d\n%s", rec.Code, rec.Body.String())
	}
	var batch GeocodeBatchResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses) != 2 {
		t.Fatalf("got %d responses, want 2", len(batch.Responses))
	}
	for i, resp := range batch.Responses {
		resp.Timing = want.Timing // wall-clock masked
		if !reflect.DeepEqual(resp, want) {
			t.Errorf("batch entry %d diverges from the standalone geocode:\n %+v\n %+v", i, resp, want)
		}
	}
	// The geo counters advance once per batched table.
	if got := s.geoRequests.Load(); got != 3 {
		t.Errorf("geoRequests = %d, want 3 (one single + two batched)", got)
	}
}

// TestGeocodeBatchValidationWire: batch-shape errors and indexed per-request
// errors, all before any work starts.
func TestGeocodeBatchValidationWire(t *testing.T) {
	h := testServer(t, Config{MaxBatch: 2}).Handler()
	for _, tc := range []struct {
		name string
		body []byte
		code string
		frag string
	}{
		{"empty batch", []byte(`{"requests": []}`), "invalid_request", "empty"},
		{"oversized batch", mustMarshal(t, GeocodeBatchRequestJSON{
			Requests: []GeocodeRequestJSON{{Table: tableJSON(t)}, {Table: tableJSON(t)}, {Table: tableJSON(t)}},
		}), "invalid_request", "exceeds"},
		{"unknown field", []byte(`{"requests": [{"tabel": {}}]}`), "invalid_json", "tabel"},
		{"missing table is indexed", []byte(`{"requests": [{"table": {"name": "t", "columns": [{"header": "A", "type": "text"}], "rows": []}}, {}]}`),
			"invalid_request", "request 1:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(h, "/v1/geocode:batch", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\n%s", rec.Code, rec.Body.String())
			}
			e := decodeError(t, rec)
			if e.Code != tc.code {
				t.Errorf("code = %q, want %q", e.Code, tc.code)
			}
			if !bytes.Contains([]byte(e.Message), []byte(tc.frag)) {
				t.Errorf("message %q missing %q", e.Message, tc.frag)
			}
		})
	}
}

// TestGeocodeBatchAdmission: a geocode batch costs one admission slot per
// table, like the annotate batch, and sheds with the jittered Retry-After.
func TestGeocodeBatchAdmission(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 2, MaxBatch: 8})
	h := s.Handler()
	s.sem <- struct{}{}
	body := mustMarshal(t, GeocodeBatchRequestJSON{
		Requests: []GeocodeRequestJSON{{Table: tableJSON(t)}, {Table: tableJSON(t)}},
	})
	rec := post(h, "/v1/geocode:batch", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != "over_capacity" {
		t.Errorf("code = %q, want over_capacity", e.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if ra != "1" && ra != "2" && ra != "3" {
		t.Errorf("Retry-After = %q, want a deterministic 1..3s hint", ra)
	}
	if rec2 := post(h, "/v1/geocode:batch", body); rec2.Header().Get("Retry-After") != ra {
		t.Error("Retry-After differs for an identical request")
	}
	<-s.sem
	if rec3 := post(h, "/v1/geocode:batch", body); rec3.Code != http.StatusOK {
		t.Fatalf("status with free slots = %d, want 200\n%s", rec3.Code, rec3.Body.String())
	}
	if got := len(s.sem); got != 0 {
		t.Errorf("in flight = %d after the batch finished, want 0", got)
	}
}

// ambiguousTableJSON renders a one-column Location table of two cells that
// each geocode to several places of one name, in the wire format: a table
// whose voting graph has a live component, so resolving it checks out scratch
// (an unambiguous table is resolved without any).
func ambiguousTableJSON(t *testing.T, g *gazetteer.Frozen) []byte {
	t.Helper()
	for _, c := range g.Cities() {
		name := g.Name(c)
		if len(g.Geocode(name)) < 2 {
			continue
		}
		tbl := table.New("homonyms", table.Column{Header: "City", Type: table.Location})
		for range 2 {
			if err := tbl.AppendRow(name); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := table.WriteJSON(&buf, tbl); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	t.Fatal("no city name geocodes to two places")
	return nil
}

// TestStatzGeo: the /statz geo block reports the frozen gazetteer, the request
// count and the decomposition's maxima, and the work counters count the
// resolution.
func TestStatzGeo(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	rec := post(h, "/v1/geocode", mustMarshal(t, GeocodeRequestJSON{Table: ambiguousTableJSON(t, s.Service().Geo())}))
	if rec.Code != http.StatusOK {
		t.Fatalf("geocode status = %d", rec.Code)
	}
	var geo GeocodeResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &geo); err != nil || geo.Stats.Ambiguous < 1 {
		t.Fatalf("the fixture table resolved no ambiguous cell: %+v, error %v", geo.Stats, err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var statz StatzJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.Geo == nil {
		t.Fatal("statz missing geo block")
	}
	if statz.Geo.GazetteerLocations != s.Service().Geo().Len() {
		t.Errorf("gazetteer_locations = %d, want %d", statz.Geo.GazetteerLocations, s.Service().Geo().Len())
	}
	if statz.Geo.Requests < 1 || statz.Geo.LargestComponent < 1 || statz.Geo.PeakScratchBytes < 1 {
		t.Errorf("geo counters not advancing: %+v", statz.Geo)
	}
	if statz.Work["cells_geocoded"] < 1 || statz.Work["components"] < 1 {
		t.Errorf("geo work counters not advancing: %v", statz.Work)
	}
}

// TestStatzGeoBatch: the geocoding of tables served through
// /v1/annotate:batch reaches /statz's work.cells_geocoded like the other two
// routes': the server's count is the sum of what each traced response did.
func TestStatzGeoBatch(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	body := mustMarshal(t, BatchRequestJSON{Requests: []AnnotateRequestJSON{
		{Table: tableJSON(t), Geocode: true, Trace: true},
		{Table: tableJSON(t), Trace: true},
	}})
	rec := post(h, "/v1/annotate:batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d\n%s", rec.Code, rec.Body.String())
	}
	var batch BatchResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses) != 2 || len(batch.Responses[0].GeoAnnotations) == 0 {
		t.Fatalf("batch geocode flag produced no geo annotations: %+v", batch.Responses)
	}
	if len(batch.Responses[1].GeoAnnotations) != 0 {
		t.Errorf("geo annotations on a request without the flag: %+v", batch.Responses[1].GeoAnnotations)
	}
	if n := batch.Responses[0].Work["cells_geocoded"]; n < int64(len(batch.Responses[0].GeoAnnotations)) {
		t.Errorf("work.cells_geocoded = %d on a response with %d geo annotations", n, len(batch.Responses[0].GeoAnnotations))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var statz StatzJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if got, want := statz.Work["cells_geocoded"], batch.Responses[0].Work["cells_geocoded"]+batch.Responses[1].Work["cells_geocoded"]; got != want {
		t.Errorf("statz work.cells_geocoded = %d, want the responses' sum %d", got, want)
	}
}
