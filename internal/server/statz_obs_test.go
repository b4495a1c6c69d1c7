package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestRouterStatzSumsStagesAndWork runs real requests on two in-process
// workers and requires every stage and counter sum of the router's merged
// /statz to equal the workers' sum. The sections are found by reflection —
// every map-valued field of StatzJSON — and checked key by key against the
// obs enums, so a section or a key the merge forgets fails here.
func TestRouterStatzSumsStagesAndWork(t *testing.T) {
	noLeaks(t)
	urls := startWorkers(t, 2, Config{})
	g := testService(t).Geo()
	for i, url := range urls {
		bodies := map[string][]byte{
			"/v1/annotate": mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t), Trace: i == 0, Geocode: true}),
			"/v1/geocode":  mustMarshal(t, GeocodeRequestJSON{Table: ambiguousTableJSON(t, g)}),
		}
		for path, body := range bodies {
			resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				Work WorkJSON `json:"work"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("worker %d %s: status %d, %v", i, path, resp.StatusCode, err)
			}
			// Counters ride on a response only when it set trace.
			if traced := i == 0 && path == "/v1/annotate"; traced != (len(body.Work) == int(obs.NumCounters)) || !traced && body.Work != nil {
				t.Errorf("worker %d %s: work %v on a response traced=%v", i, path, body.Work, traced)
			}
		}
	}
	statz := func(h http.Handler) StatzJSON {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
		var st StatzJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("statz: %v\n%s", err, rec.Body.String())
		}
		return st
	}
	fetch := func(url string) StatzJSON {
		resp, err := http.Get(url + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatzJSON
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	workers := []StatzJSON{fetch(urls[0]), fetch(urls[1])}
	merged := statz(newTestRouter(t, RouterConfig{Workers: urls}).Handler())

	names := map[reflect.Type][]string{}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		names[reflect.TypeOf(StagesJSON{})] = append(names[reflect.TypeOf(StagesJSON{})], s.String()+"_ms")
	}
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		names[reflect.TypeOf(WorkJSON{})] = append(names[reflect.TypeOf(WorkJSON{})], c.String())
	}
	sections := 0
	got := reflect.ValueOf(merged)
	for f := 0; f < got.NumField(); f++ {
		field := got.Type().Field(f)
		if field.Type.Kind() != reflect.Map {
			continue
		}
		sections++
		keys, ok := names[field.Type]
		if !ok {
			t.Errorf("statz section %s has no obs enum to check it against", field.Name)
			continue
		}
		if n := got.Field(f).Len(); n != len(keys) {
			t.Errorf("%s: the router reports %d keys, want %d", field.Name, n, len(keys))
		}
		for _, key := range keys {
			k := reflect.ValueOf(key)
			want := 0.0
			for _, w := range workers {
				v := reflect.ValueOf(w).Field(f).MapIndex(k)
				if !v.IsValid() {
					t.Fatalf("%s: a worker reports no %q", field.Name, key)
				}
				want += asFloat(v)
			}
			v := got.Field(f).MapIndex(k)
			if !v.IsValid() || asFloat(v) != want {
				t.Errorf("%s[%q]: router %v, want the workers' sum %v", field.Name, key, v, want)
			}
		}
	}
	if sections != 3 {
		t.Errorf("%d map sections in StatzJSON, want stages, busy and work", sections)
	}
	if merged.Work["geocode_calls"] == 0 || merged.Work["queries"] == 0 || merged.Stages["resolve_ms"] <= 0 || merged.Stages["decode_ms"] <= 0 || merged.Stages["encode_ms"] <= 0 {
		t.Errorf("the requests left no trace: stages %v, work %v", merged.Stages, merged.Work)
	}
}

func asFloat(v reflect.Value) float64 {
	if v.CanFloat() {
		return v.Float()
	}
	return float64(v.Int())
}
