package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro"
	"repro/internal/table"
)

// edge is what a tier does around the work, written once and held by both the
// Server and the Router: bound the body and map its failure, bound the batch,
// take a table off the wire, admit by weight or shed with the jittered
// Retry-After, write the typed error envelope, tell a cancellation from a
// failure. Only the limits and the 429's wording differ between the tiers, so
// they reject a request in the same words by construction.
type edge struct {
	sem         semaphore
	maxInFlight int
	maxBatch    int
	// maxCells bounds a table's rows × columns; 0 at the router, which leaves
	// size to the owning worker.
	maxCells int
	// full is the message of a 429.
	full string

	rejected atomic.Int64 // shed at the admission gate
	failed   atomic.Int64 // answered 5xx or 499; a router reports its workers', not its own
}

// The edge's fixed parameters: no deployment or test needs another value.
const (
	// maxBodyBytes bounds a request body: 8 MiB.
	maxBodyBytes = 8 << 20
	// defaultMaxBatch bounds the requests of one batch call.
	defaultMaxBatch = 32
	// statusClientClosedRequest is the de-facto status (nginx's 499) for a
	// request whose client cancelled mid-flight; the write usually goes
	// nowhere, but the code keeps access logs honest.
	statusClientClosedRequest = 499
)

// newEdge resolves what both tiers default alike: maxBatch 0 is
// defaultMaxBatch, clamped to maxInFlight (a larger batch could never be
// admitted). full is the 429 message's format, taking maxInFlight.
func newEdge(full string, maxInFlight, maxBatch, maxCells int) *edge {
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}
	return &edge{
		sem:         make(semaphore, maxInFlight),
		maxInFlight: maxInFlight,
		maxBatch:    min(maxBatch, maxInFlight),
		maxCells:    maxCells,
		full:        fmt.Sprintf(full, maxInFlight),
	}
}

// apiError is a typed error response not yet written; retryAfter, when set,
// is its Retry-After header.
type apiError struct {
	status     int
	code, msg  string
	retryAfter string
}

func (e *apiError) Error() string { return e.msg }

// writeError writes the typed error envelope every non-2xx response carries.
func (e *edge) writeError(w http.ResponseWriter, status int, code, msg string) {
	if status >= http.StatusInternalServerError || status == statusClientClosedRequest {
		e.failed.Add(1)
	}
	writeJSON(w, status, ErrorJSON{Error: ErrorBodyJSON{Code: code, Message: msg}})
}

// reject writes bad; i >= 0 names the batch item it belongs to.
func (e *edge) reject(w http.ResponseWriter, i int, bad *apiError) {
	msg := bad.msg
	if i >= 0 {
		msg = fmt.Sprintf("request %d: %s", i, msg)
	}
	if bad.retryAfter != "" {
		w.Header().Set("Retry-After", bad.retryAfter)
	}
	e.writeError(w, bad.status, bad.code, msg)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encode errors after WriteHeader can only come from a dead client;
	// nothing useful can be written at that point.
	_ = enc.Encode(v)
}

// isCancellation reports whether err is a context cancellation — the caller's,
// a batch's first-failure cancel or a hedge race's — rather than a failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// limitBody is r's body, bounded; writeBodyError answers what reading or
// decoding it then failed with.
func limitBody(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, maxBodyBytes)
}

func (e *edge) writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		e.writeError(w, http.StatusRequestEntityTooLarge, "table_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	e.writeError(w, http.StatusBadRequest, "invalid_json", err.Error())
}

// checkBatch bounds a batch of n requests, writing the error response itself.
func (e *edge) checkBatch(w http.ResponseWriter, n int) bool {
	switch {
	case n == 0:
		e.writeError(w, http.StatusBadRequest, "invalid_request", "requests is empty")
	case n > e.maxBatch:
		e.writeError(w, http.StatusBadRequest, "invalid_request",
			fmt.Sprintf("batch of %d requests exceeds the limit of %d", n, e.maxBatch))
	default:
		return true
	}
	return false
}

// table is the one table step of every route on both tiers: missing, then
// parsed by the internal/table JSON reader (so column-type and row-width
// validation match the rest of the system), then held to maxCells.
func (e *edge) table(raw json.RawMessage) (*repro.Table, *apiError) {
	invalid := func(reason string) *apiError {
		err := &repro.RequestError{Field: "table", Reason: reason}
		return &apiError{status: http.StatusBadRequest, code: "invalid_request", msg: err.Error()}
	}
	if len(raw) == 0 {
		return nil, invalid("missing")
	}
	tbl, err := table.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, invalid(err.Error())
	}
	if cells := tbl.NumRows() * tbl.NumCols(); e.maxCells > 0 && cells > e.maxCells {
		return nil, &apiError{status: http.StatusRequestEntityTooLarge, code: "table_too_large",
			msg: fmt.Sprintf("table has %d cells, limit is %d", cells, e.maxCells)}
	}
	return tbl, nil
}

// admit tries to reserve n slots of the bounded in-flight semaphore —
// weighted admission, so a batch of 32 tables costs 32 slots, keeping
// maxInFlight a bound on real table work. Acquisition never blocks: a full
// tier sheds the request immediately with 429 and a Retry-After hint jittered
// by the request hash (see retryAfterSeconds), keeping latency flat instead of
// queueing into timeout territory. On success the caller must release(n).
func (e *edge) admit(w http.ResponseWriter, n int, key uint64) bool {
	if !e.sem.tryAcquire(n) {
		e.rejected.Add(1)
		e.reject(w, -1, &apiError{http.StatusTooManyRequests, "over_capacity", e.full, retryAfterSeconds(key)})
		return false
	}
	return true
}

func (e *edge) release(n int) { e.sem.release(n) }

// semaphore is the bounded in-flight admission primitive: a buffered channel
// whose capacity is the in-flight limit. Acquisition is all-or-nothing and
// never blocks.
type semaphore chan struct{}

// tryAcquire reserves n slots without blocking. It either reserves all n and
// returns true, or reserves none and returns false — a partially-admitted
// batch can never leak slots.
func (s semaphore) tryAcquire(n int) bool {
	for i := 0; i < n; i++ {
		select {
		case s <- struct{}{}:
		default:
			s.release(i)
			return false
		}
	}
	return true
}

func (s semaphore) release(n int) {
	for i := 0; i < n; i++ {
		<-s
	}
}

// retryAfterSeconds derives the Retry-After hint of a 429 from the request's
// hash: 1 + (key mod 3) seconds. The jitter is deterministic per request —
// the same request always gets the same hint — but spreads distinct requests
// over a 3-second window, so a synchronized fleet of clients that all got
// shed in the same instant does not retry in lockstep and re-stampede the
// admission gate.
func retryAfterSeconds(key uint64) string {
	return strconv.Itoa(1 + int(key%3))
}

// hashBytes folds one byte slice into an FNV-1a request key. Handlers hash
// the raw wire table bytes (batches fold every table in order), so the key —
// and with it the Retry-After jitter and the router's ring placement — is a
// pure function of the request payload.
func hashBytes(chunks ...[]byte) uint64 {
	h := fnv.New64a()
	for _, c := range chunks {
		_, _ = h.Write(c)
	}
	return h.Sum64()
}
