package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// TestStagesSumToTotal: a request's stages partition its wall time — no
// stage is negative, and they add up to Total exactly — for an annotate
// request that geocodes and for a geocode request.
func TestStagesSumToTotal(t *testing.T) {
	svc := testService(t)
	addresses, _ := geoTables(t, svc)
	ctx := context.Background()
	check := func(name string, tm Timing) {
		t.Helper()
		sum := tm.Stages.Sum()
		for s, d := range tm.Stages {
			if d < 0 {
				t.Errorf("%s: stage %v is negative: %v", name, obs.Stage(s), d)
			}
		}
		if sum != tm.Total || sum <= 0 {
			t.Errorf("%s: stages sum to %v of a %v total", name, sum, tm.Total)
		}
		if tm.Stages[obs.Decode] != 0 || tm.Stages[obs.Encode] != 0 {
			t.Errorf("%s: the service charged the server's stages: %v", name, tm.Stages)
		}
	}
	for _, tbl := range []*Table{testTable(t, svc), addresses} {
		resp, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl, Geocode: true})
		if err != nil {
			t.Fatal(err)
		}
		check(tbl.Name+" annotate", resp.Timing)
		for _, s := range []obs.Stage{obs.Plan, obs.Search, obs.Geocode, obs.Decompose, obs.Resolve, obs.Render} {
			if resp.Timing.Stages[s] <= 0 {
				t.Errorf("%s annotate: stage %v never ran: %v", tbl.Name, s, resp.Timing.Stages)
			}
		}
		if resp.Work != nil {
			t.Errorf("%s: an untraced response carries work counters", tbl.Name)
		}
		geo, err := svc.Geocode(ctx, &GeocodeRequest{Table: tbl})
		if err != nil {
			t.Fatal(err)
		}
		check(tbl.Name+" geocode", geo.Timing)
		if geo.Timing.Stages[obs.Search] != 0 || geo.Timing.Stages[obs.Plan] != 0 {
			t.Errorf("%s geocode: search or plan ran: %v", tbl.Name, geo.Timing.Stages)
		}
	}
}

// TestWorkVectorScheduleIndependent: the work counters of a pool of requests
// — traced annotates, which bypass any shared cache, and geocodes — are one
// vector at GOMAXPROCS 1/2/8 × workers {1, 2, 8}; a traced response carries
// its own share, and a record on the caller's context sums them.
func TestWorkVectorScheduleIndependent(t *testing.T) {
	svc := testService(t)
	addresses, barren := geoTables(t, svc)
	tables := []*Table{testTable(t, svc), addresses, barren}
	tables = append(tables, svc.Lab().GFT.Tables[:4]...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want obs.Counts
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			cfg := svc.base
			cfg.Parallelism = workers
			rec := obs.New()
			ctx := obs.With(context.Background(), rec)
			var traced obs.Counts
			for _, tbl := range tables {
				resp, err := svc.run(ctx, cfg, &AnnotateRequest{Table: tbl, Trace: true, Geocode: true})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Work == nil {
					t.Fatalf("%s: a traced response carries no work counters", tbl.Name)
				}
				for c, n := range resp.Work {
					traced[c] += n
				}
				if _, err := svc.Geocode(ctx, &GeocodeRequest{Table: tbl}); err != nil {
					t.Fatal(err)
				}
			}
			got := rec.Work()
			if procs == 1 && workers == 1 {
				want = got
				for _, c := range []obs.Counter{obs.Queries, obs.Results, obs.GeocodeCalls, obs.Nodes, obs.Components, obs.ComponentsBuilt, obs.InListSummed} {
					if want[c] == 0 {
						t.Fatalf("counter %v is 0 over the pool: %v", c, want)
					}
				}
			}
			if got != want {
				t.Errorf("GOMAXPROCS %d, %d workers: work %v, want %v", procs, workers, got, want)
			}
			// A geocode sends no query and resolves its table as the
			// annotate did: the caller's sum is the annotates' queries and
			// twice their geo work.
			if traced[obs.Queries] != got[obs.Queries] || 2*traced[obs.GeocodeCalls] != got[obs.GeocodeCalls] || 2*traced[obs.Nodes] != got[obs.Nodes] {
				t.Errorf("GOMAXPROCS %d, %d workers: traced responses count %v, the caller %v", procs, workers, traced, got)
			}
		}
	}
}
