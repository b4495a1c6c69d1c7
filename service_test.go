package repro

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/world"
)

// svcOnce shares one small service across the service tests; construction is
// the expensive step and every test below treats the service as read-only.
var (
	svcOnce sync.Once
	svcVal  *Service
)

func testService(t *testing.T) *Service {
	t.Helper()
	if testing.Short() {
		t.Skip("service construction skipped in -short mode")
	}
	svcOnce.Do(func() {
		svc, err := New(context.Background(), WithSeed(42), WithParallelism(4))
		if err != nil {
			panic(err)
		}
		svcVal = svc
	})
	return svcVal
}

// testTable builds a deterministic three-row POI table from the service's
// universe, the quickstart shape: one annotatable Text column plus Location
// and Phone columns the pre-processor must handle.
func testTable(t *testing.T, svc *Service) *Table {
	t.Helper()
	w := svc.Lab().World
	tbl := &Table{Name: "service-test"}
	tbl.Columns = []Column{
		{Header: "Name", Type: Text},
		{Header: "Address", Type: Location},
		{Header: "Phone", Type: Text},
	}
	for _, e := range []*world.Entity{
		w.OfType(world.Museum)[0],
		w.OfType(world.Restaurant)[0],
		w.OfType(world.Museum)[1],
	} {
		if err := tbl.AppendRow(e.Name, e.Address(w.Gaz).Format(), e.Phone); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
		want string // expected OptionError.Option
	}{
		{"unknown scale", WithScale("huge"), "WithScale"},
		{"unknown classifier", WithClassifier("forest"), "WithClassifier"},
		{"negative parallelism", WithParallelism(-1), "WithParallelism"},
		{"negative search shards", WithSearchShards(-1), "WithSearchShards"},
		{"search shards above the ceiling", WithSearchShards(search.FewShards + 1), "WithSearchShards"},
		{"negative cache entries", WithCacheLimits(-1, 0), "WithCacheLimits"},
		{"negative cache ttl", WithCacheLimits(0, -time.Second), "WithCacheLimits"},
		{"non-zero cache ttl", WithCacheLimits(32, time.Minute), "WithCacheLimits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(context.Background(), tc.opt)
			var optErr *OptionError
			if !errors.As(err, &optErr) {
				t.Fatalf("New() error = %v, want *OptionError", err)
			}
			if optErr.Option != tc.want {
				t.Errorf("OptionError.Option = %q, want %q", optErr.Option, tc.want)
			}
			if optErr.Error() == "" {
				t.Error("empty error message")
			}
		})
	}
}

func TestNewCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("New(cancelled ctx) error = %v, want context.Canceled", err)
	}
}

func TestRequestValidation(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	ctx := context.Background()
	cases := []struct {
		name  string
		req   *AnnotateRequest
		field string
	}{
		{"nil request", nil, "table"},
		{"missing table", &AnnotateRequest{}, "table"},
		{"no columns", &AnnotateRequest{Table: &Table{Name: "empty"}}, "table"},
		{"empty types", &AnnotateRequest{Table: tbl, Types: []string{}}, "types"},
		{"unknown type", &AnnotateRequest{Table: tbl, Types: []string{"museum", "starship"}}, "types"},
		{"negative k", &AnnotateRequest{Table: tbl, K: -3}, "k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svc.Annotate(ctx, tc.req)
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("Annotate() error = %v, want *RequestError", err)
			}
			if reqErr.Field != tc.field {
				t.Errorf("RequestError.Field = %q, want %q", reqErr.Field, tc.field)
			}
		})
	}
}

func TestRequestKnobs(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	ctx := context.Background()

	base, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.ColumnTypes) == 0 {
		t.Error("default request (postprocess on) returned no ColumnTypes")
	}
	if len(base.Annotations) == 0 || base.Stats.Annotated != len(base.Annotations) {
		t.Errorf("Stats.Annotated = %d for %d annotations, want equal and non-zero", base.Stats.Annotated, len(base.Annotations))
	}
	if base.Stats.Rows != tbl.NumRows() || base.Stats.Cols != tbl.NumCols() {
		t.Errorf("Stats dims = %dx%d, want %dx%d", base.Stats.Rows, base.Stats.Cols, tbl.NumRows(), tbl.NumCols())
	}

	noPost, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl, Postprocess: ToggleOff})
	if err != nil {
		t.Fatal(err)
	}
	if noPost.ColumnTypes != nil {
		t.Error("postprocess=off still returned ColumnTypes")
	}
	if len(noPost.Annotations) < len(base.Annotations) {
		t.Errorf("postprocess=off returned fewer annotations (%d) than the filtered run (%d)",
			len(noPost.Annotations), len(base.Annotations))
	}

	subset, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl, Types: []string{"museum"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ann := range subset.Annotations {
		if ann.Type != "museum" {
			t.Errorf("types=[museum] produced annotation of type %q", ann.Type)
		}
	}

	traced, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Trace) != tbl.NumRows()*tbl.NumCols() {
		t.Errorf("trace has %d lines, want one per cell (%d)", len(traced.Trace), tbl.NumRows()*tbl.NumCols())
	}
	if !reflect.DeepEqual(traced.Annotations, base.Annotations) {
		t.Error("trace pass changed the annotations")
	}

	// The trace-only path must produce the same explanations as the
	// combined request, and share its validation.
	trace, err := svc.Explain(ctx, &AnnotateRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, traced.Trace) {
		t.Error("Explain diverges from the Trace field of Annotate")
	}
	var reqErr *RequestError
	if _, err := svc.Explain(ctx, &AnnotateRequest{}); !errors.As(err, &reqErr) {
		t.Errorf("Explain without table: error = %v, want *RequestError", err)
	}
}

func TestAnnotateCancelled(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Annotate(cancelled ctx) error = %v, want context.Canceled", err)
	}
}

func TestAnnotateBatchMatchesSingles(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	ctx := context.Background()

	reqs := []*AnnotateRequest{
		{Table: tbl},
		{Table: tbl, Types: []string{"museum"}},
		{Table: tbl, Postprocess: ToggleOff},
	}
	batch, err := svc.AnnotateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d responses, want %d", len(batch), len(reqs))
	}
	for i, req := range reqs {
		single, err := svc.Annotate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Annotations, single.Annotations) {
			t.Errorf("request %d: batch annotations diverge from single-call annotations", i)
		}
	}

	// An invalid request fails the whole batch before any work starts.
	_, err = svc.AnnotateBatch(ctx, []*AnnotateRequest{{Table: tbl}, {Table: nil}})
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("batch with invalid request: error = %v, want wrapped *RequestError", err)
	}
}

// TestBatchesCancelledAlike: the two batch calls share one fan-out and one
// error rule (pool.RunErr), so a batch whose caller gave up returns the
// caller's own context error from both — bare, with no request index,
// whichever request a worker happened to reach first.
func TestBatchesCancelledAlike(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, annErr := svc.AnnotateBatch(ctx, []*AnnotateRequest{{Table: tbl}, {Table: tbl, Geocode: true}, {Table: tbl}})
	_, geoErr := svc.GeocodeBatch(ctx, []*GeocodeRequest{{Table: tbl}, {Table: tbl}, {Table: tbl}})
	if annErr != context.Canceled || geoErr != context.Canceled {
		t.Errorf("AnnotateBatch error = %v, GeocodeBatch error = %v, want the bare context.Canceled from both", annErr, geoErr)
	}
}

func TestToggleOf(t *testing.T) {
	on, off := true, false
	if ToggleOf(nil) != ToggleDefault {
		t.Error("ToggleOf(nil) != ToggleDefault")
	}
	if ToggleOf(&on) != ToggleOn {
		t.Error("ToggleOf(&true) != ToggleOn")
	}
	if ToggleOf(&off) != ToggleOff {
		t.Error("ToggleOf(&false) != ToggleOff")
	}
	if !ToggleDefault.apply(true) || ToggleDefault.apply(false) {
		t.Error("ToggleDefault must keep the default")
	}
	if !ToggleOn.apply(false) || ToggleOff.apply(true) {
		t.Error("ToggleOn/ToggleOff must override the default")
	}
}

// TestRequestCountsWhatItSends: Stats.Queries is what the request sent the
// engine, traced or not, on a cold service and through a warm shared cache. A
// traced request records its trace in its one pass: it sends each unique query
// once (the duplicated row costs nothing), neither reads nor fills the cache,
// and returns the untraced request's annotations with one line per cell.
func TestRequestCountsWhatItSends(t *testing.T) {
	ctx := context.Background()
	svc := testService(t)
	shared, err := New(ctx, WithSnapshot(writeTestSnapshot(t, svc)), WithParallelism(4), WithSharedCache())
	if err != nil {
		t.Fatal(err)
	}
	tbl := testTable(t, svc)
	if err := tbl.AppendRow(tbl.Rows[0]...); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		svc  *Service
	}{{"cold", svc}, {"shared cache", shared}} {
		send := func(req *AnnotateRequest) *AnnotateResponse {
			t.Helper()
			before := s.svc.Engine().Stats().Queries
			resp, err := s.svc.Annotate(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if sent := s.svc.Engine().Stats().Queries - before; resp.Stats.Queries != sent {
				t.Errorf("%s, trace=%v: Stats.Queries = %d, engine received %d", s.name, req.Trace, resp.Stats.Queries, sent)
			}
			return resp
		}
		untraced := send(&AnnotateRequest{Table: tbl})
		unique := untraced.Stats.Queries + untraced.CacheStats.Hits
		if again := send(&AnnotateRequest{Table: tbl}); s.svc.Cache() != nil && again.Stats.Queries != 0 {
			t.Errorf("%s: a repeated untraced request sent %d queries through a warm cache", s.name, again.Stats.Queries)
		}
		var cacheBefore qcache.Stats
		if s.svc.Cache() != nil {
			cacheBefore = s.svc.Cache().Stats()
		}
		traced := send(&AnnotateRequest{Table: tbl, Trace: true})
		if traced.Stats.Queries != unique {
			t.Errorf("%s: traced request sent %d queries, want the %d unique ones", s.name, traced.Stats.Queries, unique)
		}
		if traced.CacheStats != (CacheStats{}) {
			t.Errorf("%s: traced request CacheStats = %+v, want zero", s.name, traced.CacheStats)
		}
		if s.svc.Cache() != nil && s.svc.Cache().Stats() != cacheBefore {
			t.Errorf("%s: traced request touched the cache: %+v -> %+v", s.name, cacheBefore, s.svc.Cache().Stats())
		}
		if !reflect.DeepEqual(traced.Annotations, untraced.Annotations) {
			t.Errorf("%s: traced annotations %+v, untraced %+v", s.name, traced.Annotations, untraced.Annotations)
		}
		if len(traced.Trace) != tbl.NumRows()*tbl.NumCols() {
			t.Errorf("%s: %d trace lines, want one per cell (%d)", s.name, len(traced.Trace), tbl.NumRows()*tbl.NumCols())
		}
	}
}
