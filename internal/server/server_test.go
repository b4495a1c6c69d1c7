package server

// Handler-level tests of the v1 HTTP API: request validation with typed
// error responses, admission control under concurrency, and the
// service_annotate.golden fixture that regression-locks the wire format
// byte-for-byte (timing masked — it measures the host, not the system).
// Regenerate the fixture with:
//
//	go test ./internal/server -run TestGoldenWire -update

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/table"
	"repro/internal/world"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files with current output")

// One service for the whole package: construction is the expensive step and
// the handlers treat it as read-only. Built without the shared cache so
// query counts in responses are per-request deterministic regardless of test
// order.
var (
	svcOnce sync.Once
	svcVal  *repro.Service
)

func testService(t *testing.T) *repro.Service {
	t.Helper()
	if testing.Short() {
		t.Skip("service construction skipped in -short mode")
	}
	svcOnce.Do(func() {
		svc, err := repro.New(context.Background(), repro.WithSeed(42), repro.WithParallelism(4))
		if err != nil {
			panic(err)
		}
		svcVal = svc
	})
	return svcVal
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Service = testService(t)
	return New(cfg)
}

// tableJSON renders the canonical quickstart-shaped table (two museums and a
// restaurant from the seeded universe) in the wire format.
func tableJSON(t *testing.T) []byte {
	t.Helper()
	svc := testService(t)
	w := svc.Lab().World
	tbl := table.New("city-guide",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Address", Type: table.Location},
		table.Column{Header: "Phone", Type: table.Text},
	)
	for _, e := range []*world.Entity{
		w.OfType(world.Museum)[0],
		w.OfType(world.Restaurant)[0],
		w.OfType(world.Museum)[1],
	} {
		if err := tbl.AppendRow(e.Name, e.Address(w.Gaz).Format(), e.Phone); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) ErrorBodyJSON {
	t.Helper()
	var e ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not ErrorJSON: %v\n%s", err, rec.Body.String())
	}
	return e.Error
}

func TestAnnotateHandlerValidation(t *testing.T) {
	h := testServer(t, Config{}).Handler()
	// hSmall rejects the 9-cell test table on size; the size check runs
	// after table parsing but the table must otherwise be valid.
	hSmall := testServer(t, Config{MaxCells: 8}).Handler()
	tblJSON := tableJSON(t)
	req := func(mutate func(m map[string]any)) []byte {
		m := map[string]any{"table": json.RawMessage(tblJSON)}
		if mutate != nil {
			mutate(m)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cases := []struct {
		name       string
		body       []byte
		handler    http.Handler
		wantStatus int
		wantCode   string
		wantInMsg  string
	}{
		{"invalid json", []byte("{"), nil, http.StatusBadRequest, "invalid_json", ""},
		{"unknown field", []byte(`{"tabel": {}}`), nil, http.StatusBadRequest, "invalid_json", "tabel"},
		{"missing table", []byte(`{}`), nil, http.StatusBadRequest, "invalid_request", "table"},
		{"bad column type", []byte(`{"table": {"name":"x","columns":[{"header":"A","type":"Blob"}],"rows":[]}}`),
			nil, http.StatusBadRequest, "invalid_request", "Blob"},
		{"ragged row", []byte(`{"table": {"name":"x","columns":[{"header":"A","type":"Text"}],"rows":[["a","b"]]}}`),
			nil, http.StatusBadRequest, "invalid_request", "row"},
		{"unknown type name", req(func(m map[string]any) { m["types"] = []string{"museum", "starship"} }),
			nil, http.StatusBadRequest, "invalid_request", "starship"},
		{"negative k", req(func(m map[string]any) { m["k"] = -2 }),
			nil, http.StatusBadRequest, "invalid_request", "k"},
		{"k above the ceiling", req(func(m map[string]any) { m["k"] = repro.MaxK + 1 }),
			nil, http.StatusBadRequest, "invalid_request", "k"},
		{"oversized table", req(nil), hSmall, http.StatusRequestEntityTooLarge, "table_too_large", "cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := tc.handler
			if target == nil {
				target = h
			}
			rec := post(target, "/v1/annotate", tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d\n%s", rec.Code, tc.wantStatus, rec.Body.String())
			}
			e := decodeError(t, rec)
			if e.Code != tc.wantCode {
				t.Errorf("error code = %q, want %q", e.Code, tc.wantCode)
			}
			if tc.wantInMsg != "" && !strings.Contains(e.Message, tc.wantInMsg) {
				t.Errorf("error message %q does not mention %q", e.Message, tc.wantInMsg)
			}
		})
	}
	if rec := post(h, "/v1/annotate", req(func(m map[string]any) { m["k"] = repro.MaxK })); rec.Code != http.StatusOK {
		t.Errorf("k at the ceiling: status = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
}

func TestRouting(t *testing.T) {
	h := testServer(t, Config{}).Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/annotate", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/annotate status = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/annotate", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("POST /v2/annotate status = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /healthz status = %d, want 200", rec.Code)
	}
	var health HealthJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil || health.Status != "ok" {
		t.Errorf("healthz body = %q, want status ok", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /statz status = %d, want 200", rec.Code)
	}
	var statz StatzJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil {
		t.Fatalf("statz body: %v", err)
	}
	if statz.MaxInFlight != 64 {
		t.Errorf("statz max_in_flight = %d, want the default 64", statz.MaxInFlight)
	}
	if statz.Search == nil {
		t.Fatal("statz missing the search section")
	}
	if statz.Search.Shards < 1 {
		t.Errorf("statz search shards = %d, want >= 1", statz.Search.Shards)
	}
	if statz.Search.IndexDocs == 0 {
		t.Error("statz search index_docs = 0, want the corpus size")
	}
}

func TestCancelledMidFlight(t *testing.T) {
	h := testServer(t, Config{}).Handler()
	body, err := json.Marshal(map[string]any{"table": json.RawMessage(tableJSON(t))})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/annotate", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d\n%s", rec.Code, statusClientClosedRequest, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != "cancelled" {
		t.Errorf("error code = %q, want cancelled", e.Code)
	}
}

// TestRoundTripMatchesInProcess locks the serving layer to the in-process
// API: the annotations coming back over HTTP must be byte-identical to the
// wire rendering of a direct Service.Annotate call.
func TestRoundTripMatchesInProcess(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(testServer(t, Config{}).Handler())
	defer srv.Close()

	tblJSON := tableJSON(t)
	body, err := json.Marshal(AnnotateRequestJSON{Table: tblJSON})
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(srv.URL+"/v1/annotate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", httpResp.StatusCode)
	}
	var overHTTP AnnotateResponseJSON
	if err := json.NewDecoder(httpResp.Body).Decode(&overHTTP); err != nil {
		t.Fatal(err)
	}

	tbl, err := table.ReadJSON(bytes.NewReader(tblJSON))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := svc.Annotate(context.Background(), &repro.AnnotateRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if len(overHTTP.Annotations) == 0 {
		t.Fatal("HTTP path produced no annotations; the comparison would be vacuous")
	}

	gotBytes, err := json.Marshal(overHTTP.Annotations)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(toWire(direct).Annotations)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("annotations over HTTP diverge from in-process:\n http = %s\n proc = %s", gotBytes, wantBytes)
	}
	if !reflect.DeepEqual(overHTTP.Stats, toWire(direct).Stats) {
		t.Errorf("stats over HTTP diverge from in-process: %+v vs %+v", overHTTP.Stats, toWire(direct).Stats)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := testServer(t, Config{MaxBatch: 2})
	h := s.Handler()
	tblJSON := tableJSON(t)

	rec := post(h, "/v1/annotate:batch", []byte(`{"requests": []}`))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", rec.Code)
	}

	three, err := json.Marshal(BatchRequestJSON{Requests: []AnnotateRequestJSON{
		{Table: tblJSON}, {Table: tblJSON}, {Table: tblJSON},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec = post(h, "/v1/annotate:batch", three)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", rec.Code)
	}

	// A bad request inside the batch is rejected with its index.
	bad, err := json.Marshal(BatchRequestJSON{Requests: []AnnotateRequestJSON{
		{Table: tblJSON}, {Table: nil},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec = post(h, "/v1/annotate:batch", bad)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad batch status = %d, want 400", rec.Code)
	}
	if e := decodeError(t, rec); !strings.Contains(e.Message, "request 1") {
		t.Errorf("batch error message %q does not name the failing index", e.Message)
	}

	two, err := json.Marshal(BatchRequestJSON{Requests: []AnnotateRequestJSON{
		{Table: tblJSON}, {Table: tblJSON, Types: []string{"museum"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec = post(h, "/v1/annotate:batch", two)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d\n%s", rec.Code, rec.Body.String())
	}
	var batch BatchResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses) != 2 {
		t.Fatalf("batch returned %d responses, want 2", len(batch.Responses))
	}
	single := post(h, "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tblJSON}))
	var singleResp AnnotateResponseJSON
	if err := json.Unmarshal(single.Body.Bytes(), &singleResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Responses[0].Annotations, singleResp.Annotations) {
		t.Error("batch response 0 diverges from the single-request response")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdmissionControl fills the in-flight semaphore and checks the 429
// shed path, then releases it and checks recovery.
func TestAdmissionControl(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 1})
	h := s.Handler()
	body := mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t)})

	s.sem <- struct{}{} // occupy the only slot
	rec := post(h, "/v1/annotate", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status with full semaphore = %d, want 429", rec.Code)
	}
	if e := decodeError(t, rec); e.Code != "over_capacity" {
		t.Errorf("error code = %q, want over_capacity", e.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	<-s.sem

	rec = post(h, "/v1/annotate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status after release = %d, want 200\n%s", rec.Code, rec.Body.String())
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestBatchAdmissionWeighted: a batch call is charged one slot per request,
// so MaxInFlight bounds table annotations, not HTTP calls.
func TestBatchAdmissionWeighted(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 2, MaxBatch: 2})
	h := s.Handler()
	batch := mustMarshal(t, BatchRequestJSON{Requests: []AnnotateRequestJSON{
		{Table: tableJSON(t)}, {Table: tableJSON(t)},
	}})

	s.sem <- struct{}{} // occupy one of the two slots
	rec := post(h, "/v1/annotate:batch", batch)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch of 2 with 1 free slot: status = %d, want 429\n%s", rec.Code, rec.Body.String())
	}
	if got := len(s.sem); got != 1 {
		t.Errorf("failed admission leaked slots: in-flight = %d, want 1", got)
	}
	<-s.sem

	rec = post(h, "/v1/annotate:batch", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch of 2 with 2 free slots: status = %d\n%s", rec.Code, rec.Body.String())
	}
	if got := len(s.sem); got != 0 {
		t.Errorf("slots not released after batch: in-flight = %d, want 0", got)
	}
}

// TestMaxBatchClampedToMaxInFlight: a batch larger than MaxInFlight could
// never be admitted, so New clamps the limit.
func TestMaxBatchClampedToMaxInFlight(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 4, MaxBatch: 32})
	if s.maxBatch != 4 {
		t.Errorf("MaxBatch = %d, want clamped to MaxInFlight (4)", s.maxBatch)
	}
}

// TestConcurrentRequests storms the server with more concurrent requests
// than MaxInFlight allows; under -race this doubles as the data-race check
// of the acceptance criteria. Every request must end in 200 or 429.
func TestConcurrentRequests(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t)})

	const clients = 8
	statuses := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/annotate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	ok := 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, st)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under concurrency")
	}
	if got := s.served.Load(); got != int64(ok) {
		t.Errorf("served counter = %d, want %d", got, ok)
	}
}

// timingRe masks the wall-clock fields of the wire format, the total and
// every stage: they measure the host machine, not the system under test.
var timingRe = regexp.MustCompile(`"(\w+_ms)": [0-9eE.+-]+`)

// TestGoldenWire locks the /v1/annotate JSON response byte-for-byte
// (timing masked) so the wire format cannot drift unreviewed.
func TestGoldenWire(t *testing.T) {
	h := testServer(t, Config{}).Handler()
	rec := post(h, "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t)}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.String())
	}
	got := timingRe.ReplaceAll(rec.Body.Bytes(), []byte(`"$1": <wall-clock>`))

	path := filepath.Join("testdata", "golden", "service_annotate.golden")
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

// TestDefaultsApplied sanity-checks the config defaulting in New.
func TestDefaultsApplied(t *testing.T) {
	s := testServer(t, Config{})
	if s.maxInFlight != 64 || cap(s.sem) != 64 || s.maxCells != 100000 || s.maxBatch != 32 {
		t.Errorf("defaults not applied: in flight %d (semaphore %d), cells %d, batch %d",
			s.maxInFlight, cap(s.sem), s.maxCells, s.maxBatch)
	}
	defer func() {
		if recover() == nil {
			t.Error("New with nil Service did not panic")
		}
	}()
	New(Config{})
}

// statzService is a second package-wide service, this one WITH the shared
// cache (tightly capped so eviction counters move): the statz golden locks
// the cache section's wire shape, which the cache-less testService never
// emits. Built once; only the statz golden uses it.
var (
	statzSvcOnce sync.Once
	statzSvcVal  *repro.Service
)

func statzService(t *testing.T) *repro.Service {
	t.Helper()
	if testing.Short() {
		t.Skip("service construction skipped in -short mode")
	}
	statzSvcOnce.Do(func() {
		// Sequential (default) parallelism and one shard keep every /statz
		// counter — including the FIFO eviction count — deterministic.
		svc, err := repro.New(context.Background(), repro.WithSeed(42),
			repro.WithSearchShards(1), repro.WithSharedCache(),
			repro.WithCacheLimits(32, 0))
		if err != nil {
			panic(err)
		}
		statzSvcVal = svc
	})
	return statzSvcVal
}

// TestStatzGoldenWire locks the GET /statz JSON body byte-for-byte (uptime
// and stage times masked — they measure the host) after one canonical annotate
// request, so the statz wire format, including the cache section's eviction
// counter, cannot drift unreviewed.
func TestStatzGoldenWire(t *testing.T) {
	svc := statzService(t)
	// The service outlives the test: under -count or -cpu lists every run
	// starts from the cache and the engine counters New left.
	svc.Cache().Reset()
	svc.Engine().ResetCounters()
	srv := New(Config{Service: svc})
	h := srv.Handler()
	rec := post(h, "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t)}))
	if rec.Code != http.StatusOK {
		t.Fatalf("annotate status = %d\n%s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statz status = %d\n%s", rec.Code, rec.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("statz body: %v", err)
	}
	m["uptime_ms"] = "<wall-clock>"
	for _, key := range []string{"stages", "busy"} {
		times, _ := m[key].(map[string]any)
		for stage := range times {
			times[stage] = "<wall-clock>"
		}
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden", "service_statz.golden")
	if *update {
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
		t.Errorf("statz wire format diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, regenerate with -update and review the diff.", got, want)
	}
}
