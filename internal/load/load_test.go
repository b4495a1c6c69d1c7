package load

// Driver tests against stub HTTP servers: status accounting, round-robin
// target spread, open-loop pacing, and the deterministic workload plan.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/world"
)

// stubTarget counts the annotate requests it receives and answers every
// second one with 429, so a run sees two statuses.
func stubTarget(t *testing.T, annotate *atomic.Int64) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/annotate" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if annotate.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
}

func TestRunClosedLoop(t *testing.T) {
	var ann atomic.Int64
	ts := stubTarget(t, &ann)
	defer ts.Close()
	res, err := Run(Config{
		Targets: []string{ts.URL}, N: 40, Concurrency: 4,
		Rows: 2, Seed: 42, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 40 || ann.Load() != 40 {
		t.Fatalf("sent %d, server saw %d; want 40 each", res.Sent, ann.Load())
	}
	if res.OK() != 20 || res.Statuses[http.StatusTooManyRequests] != 20 {
		t.Errorf("statuses = %v, want 20 × 200 and 20 × 429", res.Statuses)
	}
	if len(res.Latencies) != res.OK() {
		t.Errorf("%d latencies for %d 200s: only 200s are timed", len(res.Latencies), res.OK())
	}
	for i := 1; i < len(res.Latencies); i++ {
		if res.Latencies[i] < res.Latencies[i-1] {
			t.Fatal("latencies are not sorted")
		}
	}
}

func TestRunRoundRobin(t *testing.T) {
	var a1, a2 atomic.Int64
	t1 := stubTarget(t, &a1)
	t2 := stubTarget(t, &a2)
	defer t1.Close()
	defer t2.Close()
	if _, err := Run(Config{
		Targets: []string{t1.URL, t2.URL}, N: 10, Concurrency: 2,
		Rows: 1, Seed: 42, Timeout: 5 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if a1.Load() != 5 || a2.Load() != 5 {
		t.Errorf("round robin split = (%d, %d), want (5, 5)", a1.Load(), a2.Load())
	}
}

// TestRunOpenLoop: the Poisson schedule paces the run — N arrivals at a rate
// well below the server's speed take about N/rate seconds, not zero.
func TestRunOpenLoop(t *testing.T) {
	var ann atomic.Int64
	ts := stubTarget(t, &ann)
	defer ts.Close()
	res, err := Run(Config{
		Targets: []string{ts.URL}, N: 30, Rate: 200,
		Rows: 1, Seed: 42, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 30 {
		t.Fatalf("sent = %d, want 30", res.Sent)
	}
	// E[wall] = 30/200s = 150ms; the seeded schedule is fixed, so just
	// bound it loosely against "no pacing at all".
	if res.Wall < 50*time.Millisecond {
		t.Errorf("open-loop run finished in %v: arrivals were not paced", res.Wall)
	}
}

// TestPlanDeterministic: same config, same workload — bodies and arrival
// schedule — and no cell repeats across the run even when it cycles through
// the universe's entities, so a shared verdict cache cannot answer one
// request from another.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{N: 20, Rate: 100, Rows: 100, Seed: 7}
	p1, err := plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("two plans from the same config differ")
	}
	for i := 1; i < len(p1); i++ {
		if p1[i].arrival < p1[i-1].arrival {
			t.Fatal("arrival schedule is not monotone")
		}
	}
	ents := len(world.Generate(world.Config{Seed: cfg.Seed, KBPerType: 60}).TableEntities(world.Restaurant))
	if cfg.N*cfg.Rows <= ents {
		t.Fatalf("%d cells over %d entities: the plan never reuses an entity", cfg.N*cfg.Rows, ents)
	}
	seen := map[string]bool{}
	for i, r := range p1 {
		var req server.AnnotateRequestJSON
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatal(err)
		}
		tbl, err := table.ReadJSON(bytes.NewReader(req.Table))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tbl.ColumnValues(1) {
			if seen[name] {
				t.Fatalf("request %d repeats the cell %q", i, name)
			}
			seen[name] = true
		}
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		permille int
		want     time.Duration
	}{{500, 6}, {900, 10}, {999, 10}, {0, 1}} {
		if got := Percentile(ds, tc.permille); got != tc.want {
			t.Errorf("Percentile(%d) = %d, want %d", tc.permille, got, tc.want)
		}
	}
	if got := Percentile(nil, 500); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{N: 0, Rows: 1, Targets: []string{"http://x"}, Concurrency: 1}); err == nil {
		t.Error("N=0 must fail")
	}
	if _, err := Run(Config{N: 1, Rows: 1, Concurrency: 1}); err == nil {
		t.Error("no targets must fail")
	}
	if _, err := Run(Config{N: 1, Rows: 1, Targets: []string{"http://x"}}); err == nil {
		t.Error("closed loop without concurrency must fail")
	}
}
