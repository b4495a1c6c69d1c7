package server

// Hot-reload and snapshot-boot coverage: the differential tests prove a
// server booted from a TSNP bundle speaks the exact wire bytes of the
// built-world goldens, and the load test proves a SIGHUP-style swap drops
// zero requests while responses stay byte-identical across the swap.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/leakcheck"
	"repro/internal/qcache"
	"repro/internal/table"
)

// One snapshot-booted twin of testService for the whole package: the bundle
// is written once from the built service and loaded once, with the same
// parallelism so per-request stats match exactly.
var (
	snapSvcOnce sync.Once
	snapSvcVal  *repro.Service
)

func snapshotService(t *testing.T) *repro.Service {
	t.Helper()
	built := testService(t)
	snapSvcOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tsnp-server-test")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		snapSvcVal = bootSnapshot(built, dir)
	})
	return snapSvcVal
}

// bootSnapshot writes built's bundle into dir and boots a service from it, at
// built's parallelism.
func bootSnapshot(built *repro.Service, dir string, opts ...repro.Option) *repro.Service {
	path := filepath.Join(dir, "world.tsnp")
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if _, err := built.WriteSnapshot(f, "server_test"); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	svc, err := repro.New(context.Background(), append(opts, repro.WithSnapshot(path), repro.WithParallelism(4))...)
	if err != nil {
		panic(err)
	}
	return svc
}

// maskTiming hides the only legitimately run-dependent bytes of a response.
func maskTiming(body []byte) []byte {
	return timingRe.ReplaceAll(body, []byte(`"$1": <wall-clock>`))
}

// TestSnapshotDifferentialWire: a server whose service was booted from a
// snapshot serves byte-identical /v1/annotate, /v1/annotate:batch and
// /v1/geocode responses to the built-world server — checked both directly
// against a built-service server in-process and against the checked-in wire
// goldens.
func TestSnapshotDifferentialWire(t *testing.T) {
	builtH := testServer(t, Config{}).Handler()
	snapH := New(Config{Service: snapshotService(t)}).Handler()
	tbl := tableJSON(t)

	cases := []struct {
		name, path string
		body       []byte
		golden     string
	}{
		{"annotate", "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tbl}), "service_annotate.golden"},
		{"annotate_geocode", "/v1/annotate", mustMarshal(t, AnnotateRequestJSON{Table: tbl, Geocode: true}), "service_annotate_geocode.golden"},
		{"geocode", "/v1/geocode", mustMarshal(t, GeocodeRequestJSON{Table: tbl}), "service_geocode.golden"},
		{"batch", "/v1/annotate:batch", mustMarshal(t, BatchRequestJSON{Requests: []AnnotateRequestJSON{
			{Table: tbl}, {Table: tbl, Trace: true},
		}}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bRec := post(builtH, tc.path, tc.body)
			sRec := post(snapH, tc.path, tc.body)
			if bRec.Code != http.StatusOK || sRec.Code != http.StatusOK {
				t.Fatalf("status built=%d snapshot=%d\n%s", bRec.Code, sRec.Code, sRec.Body.String())
			}
			got, want := maskTiming(sRec.Body.Bytes()), maskTiming(bRec.Body.Bytes())
			if string(got) != string(want) {
				t.Errorf("snapshot-booted response diverged from built-world response.\n--- snapshot ---\n%s\n--- built ---\n%s", got, want)
			}
			if tc.golden == "" || *update {
				return // goldens are written by their own tests
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(golden) {
				t.Errorf("snapshot-booted response diverged from %s.\n--- got ---\n%s", tc.golden, got)
			}
		})
	}

	// The snapshot-booted statz block reports its provenance.
	rec := httptest.NewRecorder()
	snapH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var statz StatzJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil {
		t.Fatal(err)
	}
	if statz.Snapshot == nil || statz.Snapshot.Source != "snapshot" ||
		statz.Snapshot.Seed != 42 || statz.Snapshot.LoadMs <= 0 {
		t.Errorf("snapshot statz block = %+v", statz.Snapshot)
	}
}

// TestReloadZeroDropUnderLoad: clients hammer the v1 endpoints while the
// server hot-swaps between the built world and its snapshot twin. Every
// request must succeed and every annotate response must stay byte-identical
// to the pre-swap reference — zero drops, zero torn reads. Run under -race
// in CI, this is also the data-race proof for the swap.
func TestReloadZeroDropUnderLoad(t *testing.T) {
	built := testService(t)
	snap := snapshotService(t)
	leakcheck.Goroutines(t)
	s := testServer(t, Config{MaxInFlight: 1024})
	h := s.Handler()
	tbl := tableJSON(t)
	annBody := mustMarshal(t, AnnotateRequestJSON{Table: tbl})
	geoBody := mustMarshal(t, GeocodeRequestJSON{Table: tbl})

	ref := post(h, "/v1/annotate", annBody)
	if ref.Code != http.StatusOK {
		t.Fatalf("reference annotate status = %d", ref.Code)
	}
	wantAnn := string(maskTiming(ref.Body.Bytes()))

	stop := make(chan struct{})
	fail := make(chan string, 1)
	var wg sync.WaitGroup
	var served atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if (w+i)%3 == 0 {
					rec := post(h, "/v1/geocode", geoBody)
					if rec.Code != http.StatusOK {
						select {
						case fail <- rec.Body.String():
						default:
						}
						return
					}
				} else {
					rec := post(h, "/v1/annotate", annBody)
					if rec.Code != http.StatusOK {
						select {
						case fail <- rec.Body.String():
						default:
						}
						return
					}
					if got := string(maskTiming(rec.Body.Bytes())); got != wantAnn {
						select {
						case fail <- "annotate response changed across swap:\n" + got:
						default:
						}
						return
					}
				}
				served.Add(1)
			}
		}(w)
	}

	const swaps = 6
	for i := 0; i < swaps; i++ {
		next := built
		if i%2 == 0 {
			next = snap
		}
		if err := s.Reload(func() (*repro.Service, error) { return next, nil }); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond) // let requests land on the fresh service
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatalf("request failed during hot swaps: %s", msg)
	default:
	}
	if n := served.Load(); n < swaps {
		t.Errorf("only %d requests served across %d swaps", n, swaps)
	}
	if e := s.reloadEpoch.Load(); e != swaps {
		t.Errorf("reload_epoch = %d, want %d", e, swaps)
	}
	// The last swap (i=5, odd) installed the built service again.
	if s.Service() != built {
		t.Error("final service is not the built world")
	}
	// And a post-swap response still matches the reference.
	rec := post(h, "/v1/annotate", annBody)
	if got := string(maskTiming(rec.Body.Bytes())); got != wantAnn {
		t.Error("post-swap annotate response diverged from the reference")
	}
}

// TestReloadWindowAndFailure: /healthz flips to 503 "reloading" for the
// build window, an overlapping Reload is rejected, a failed build keeps the
// old service serving, and the epoch only counts completed swaps.
func TestReloadWindowAndFailure(t *testing.T) {
	noLeaks(t)
	s := testServer(t, Config{})
	h := s.Handler()
	old := s.Service()
	epoch := s.reloadEpoch.Load()

	healthz := func() (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var hj HealthJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &hj); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return rec.Code, hj.Status
	}
	if code, status := healthz(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz at rest = %d %q", code, status)
	}

	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.Reload(func() (*repro.Service, error) {
			<-release
			return snapshotService(t), nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, status := healthz(); code == http.StatusServiceUnavailable && status == "reloading" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported reloading")
		}
		time.Sleep(time.Millisecond)
	}
	// v1 requests keep serving from the old service during the window.
	if rec := post(h, "/v1/geocode", mustMarshal(t, GeocodeRequestJSON{Table: tableJSON(t)})); rec.Code != http.StatusOK {
		t.Fatalf("geocode during reload window: %d", rec.Code)
	}
	if err := s.Reload(func() (*repro.Service, error) { return old, nil }); !errors.Is(err, ErrReloadInProgress) {
		t.Fatalf("overlapping reload error = %v, want ErrReloadInProgress", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if code, status := healthz(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz after reload = %d %q", code, status)
	}
	if s.Service() == old {
		t.Error("reload did not swap the service")
	}
	if got := s.reloadEpoch.Load(); got != epoch+1 {
		t.Errorf("reload_epoch = %d, want %d", got, epoch+1)
	}

	// A failed build keeps the old service and does not bump the epoch.
	current := s.Service()
	buildErr := errors.New("synthetic build failure")
	if err := s.Reload(func() (*repro.Service, error) { return nil, buildErr }); !errors.Is(err, buildErr) {
		t.Fatalf("failed build error = %v, want %v", err, buildErr)
	}
	if s.Service() != current || s.reloadEpoch.Load() != epoch+1 {
		t.Error("failed reload disturbed the serving service or the epoch")
	}
}

// TestReloadKeepsCachesApart: every service owns its shared cache, so a swap
// invalidates nothing and leaks nothing. The serving cache after a Reload is
// the new service's own, empty; the old service's still holds what it held,
// so a request running on it across the swap keeps its hits; and /statz's
// cache section restarts from zero.
func TestReloadKeepsCachesApart(t *testing.T) {
	built := testService(t)
	dir := t.TempDir()
	old := bootSnapshot(built, dir, repro.WithSharedCache())
	next := bootSnapshot(built, dir, repro.WithSharedCache())
	leakcheck.Goroutines(t)
	s := New(Config{Service: old})
	h := s.Handler()
	body := mustMarshal(t, AnnotateRequestJSON{Table: tableJSON(t)})
	annotate := func() CacheJSON {
		t.Helper()
		rec := post(h, "/v1/annotate", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("annotate status = %d\n%s", rec.Code, rec.Body.String())
		}
		var resp AnnotateResponseJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Cache
	}
	statzCache := func() CacheFull {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
		var statz StatzJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &statz); err != nil || statz.Cache == nil {
			t.Fatalf("statz has no cache section (%v)\n%s", err, rec.Body.String())
		}
		return *statz.Cache
	}

	cold, warm := annotate(), annotate()
	if cold.Misses == 0 || warm.Misses != 0 || warm.Hits != cold.Misses {
		t.Fatalf("cache never warmed: first request %+v, second %+v", cold, warm)
	}
	held := old.Cache().Stats()
	if c := statzCache(); held.Entries == 0 || c.Entries != held.Entries || c.Hits != held.Hits || c.Misses != held.Misses {
		t.Fatalf("before the swap /statz reports %+v, the serving cache holds %+v", c, held)
	}

	if err := s.Reload(func() (*repro.Service, error) { return next, nil }); err != nil {
		t.Fatal(err)
	}
	serving := s.Service().Cache()
	if serving == nil || serving == old.Cache() {
		t.Fatalf("after the swap the serving cache (%p) is not the new service's own (old %p)", serving, old.Cache())
	}
	if st := serving.Stats(); st != (qcache.Stats{}) {
		t.Errorf("the new service's cache starts at %+v, want empty", st)
	}
	if c := statzCache(); c != (CacheFull{}) {
		t.Errorf("after the swap /statz's cache section reads %+v, want a restart from zero", c)
	}
	if st := old.Cache().Stats(); st != held {
		t.Errorf("the swap changed the old service's cache: %+v, held %+v", st, held)
	}

	// A request still running on the old service finds every verdict it had,
	// and teaches the new service's cache nothing.
	tbl, err := table.ReadJSON(bytes.NewReader(tableJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := old.Annotate(context.Background(), &repro.AnnotateRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheStats.Misses != 0 || resp.CacheStats.Hits != warm.Hits {
		t.Errorf("a request on the old service after the swap: %+v, want the %d hits it had before", resp.CacheStats, warm.Hits)
	}
	if st := serving.Stats(); st != (qcache.Stats{}) {
		t.Errorf("the old service's request reached the new cache: %+v", st)
	}
	// The first request after the swap pays its misses again.
	if first := annotate(); first != cold {
		t.Errorf("first request on the new service: cache %+v, want the cold %+v", first, cold)
	}
}
