package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestErrorParity is the bounded equivalence of the two tiers on the error
// path: every body a tier can reject before any annotation work is posted to
// a worker and through a router in front of an equally configured worker, and
// must come back with the same status, code and message — the edge (edge.go)
// writes each of them once. The one exception is invalid_json: a worker
// decodes the body as a stream (json.Decoder) and the router unmarshals the
// buffered bytes (json.Unmarshal), two std-lib entry points that word a
// malformed body differently, so those cases are compared by status and code
// only.
func TestErrorParity(t *testing.T) {
	noLeaks(t)
	cfg := Config{MaxBatch: 2, MaxCells: 8}
	worker := testServer(t, cfg).Handler()
	routed := newTestRouter(t, RouterConfig{Workers: startWorkers(t, 1, cfg), MaxBatch: 2}).Handler()

	good := json.RawMessage(tableJSON(t)) // 9 cells: one over MaxCells
	small := json.RawMessage(`{"name":"s","columns":[{"header":"A","type":"Text"}],"rows":[["a"]]}`)
	unparseable := json.RawMessage(`{"name": 3}`)
	blob := json.RawMessage(`{"name":"x","columns":[{"header":"A","type":"Blob"}],"rows":[]}`)
	ragged := json.RawMessage(`{"name":"x","columns":[{"header":"A","type":"Text"}],"rows":[["a","b"]]}`)
	one := func(tbl json.RawMessage) []byte { return mustMarshal(t, map[string]any{"table": tbl}) }
	batch := func(tbls ...json.RawMessage) []byte {
		reqs := make([]any, len(tbls))
		for i, tbl := range tbls {
			reqs[i] = map[string]any{"table": tbl}
			if tbl == nil {
				reqs[i] = map[string]any{}
			}
		}
		return mustMarshal(t, map[string]any{"requests": reqs})
	}
	oversized := append(append([]byte(`{"table": "`), bytes.Repeat([]byte("a"), maxBodyBytes+1)...), `"}`...)

	for _, tc := range []struct {
		name     string
		batch    bool
		body     []byte
		status   int
		code     string
		codeOnly bool
	}{
		{"missing table", false, []byte(`{}`), http.StatusBadRequest, "invalid_request", false},
		{"unparseable table", false, one(unparseable), http.StatusBadRequest, "invalid_request", false},
		{"wrong column type", false, one(blob), http.StatusBadRequest, "invalid_request", false},
		{"ragged row", false, one(ragged), http.StatusBadRequest, "invalid_request", false},
		{"oversized table", false, one(good), http.StatusRequestEntityTooLarge, "table_too_large", false},
		{"oversized body", false, oversized, http.StatusRequestEntityTooLarge, "table_too_large", false},
		{"malformed body", false, []byte(`{"table": `), http.StatusBadRequest, "invalid_json", true},
		{"empty batch", true, batch(), http.StatusBadRequest, "invalid_request", false},
		{"over-limit batch", true, batch(small, small, small), http.StatusBadRequest, "invalid_request", false},
		{"item 1: missing table", true, batch(small, nil), http.StatusBadRequest, "invalid_request", false},
		{"item 1: unparseable table", true, batch(small, unparseable), http.StatusBadRequest, "invalid_request", false},
		{"item 1: ragged row", true, batch(small, ragged), http.StatusBadRequest, "invalid_request", false},
		{"item 1: oversized table", true, batch(small, good), http.StatusRequestEntityTooLarge, "table_too_large", false},
		{"malformed batch body", true, []byte(`{"requests": [`), http.StatusBadRequest, "invalid_json", true},
	} {
		for _, path := range []string{"/v1/annotate", "/v1/geocode"} {
			if tc.batch {
				path += ":batch"
			}
			t.Run(tc.name+path, func(t *testing.T) {
				want, got := post(worker, path, tc.body), post(routed, path, tc.body)
				we, ge := decodeError(t, want), decodeError(t, got)
				if want.Code != tc.status || we.Code != tc.code {
					t.Fatalf("worker answered %d %s (%q), want %d %s", want.Code, we.Code, we.Message, tc.status, tc.code)
				}
				if got.Code != want.Code || ge.Code != we.Code || (!tc.codeOnly && ge.Message != we.Message) {
					t.Errorf("router answered %d %s %q\n worker answered %d %s %q", got.Code, ge.Code, ge.Message, want.Code, we.Code, we.Message)
				}
				if strings.HasPrefix(tc.name, "item 1: ") && !strings.HasPrefix(we.Message, "request 1: ") {
					t.Errorf("message %q does not name request 1", we.Message)
				}
			})
		}
	}
}
