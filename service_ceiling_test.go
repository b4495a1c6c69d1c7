package repro

import (
	"context"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/search"
)

// TestKCeilingCost annotates the service-test table at the largest in-tree k
// (15, the k sweep's) and at the ceiling, MaxK, and reports each request's
// wall time and bytes allocated. What grows with k is the results: each cell
// query returns up to k search.Results, and each search shard keeps its own
// top k (doc, score) hits (16 B each) before the shards merge. So a request
// allocates at most
//
//	fixed + cells·k·(sizeof(search.Result) + 16·shards)
//
// bytes, where fixed is what a request costs whatever k is (its plan,
// features, verdicts and response: about 9 KB here). The bound asserted is
// twice the k term over every cell of the table, queried or not, plus 16 KiB:
// a cost that grew faster than k × cells, or a fixed cost that grew past
// that slack, fails it. sync.Pool drops puts under the race detector, so a
// request there may re-allocate a shard's pooled accumulator; the bound is
// only reported there.
func TestKCeilingCost(t *testing.T) {
	svc := testService(t)
	tbl := testTable(t, svc)
	ctx := context.Background()
	cells := tbl.NumRows() * tbl.NumCols()
	shards := svc.Engine().ShardedIndex().NumShards()
	perResult := int(unsafe.Sizeof(search.Result{})) + 16*shards
	for _, k := range []int{15, MaxK} {
		req := &AnnotateRequest{Table: tbl, K: k}
		if _, err := svc.Annotate(ctx, req); err != nil { // warms the pooled scratch
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := svc.Annotate(ctx, req)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		bound := 16<<10 + 2*cells*k*perResult
		t.Logf("k=%d on %d cells: %v, %d B allocated (bound %d B)", k, cells, wall, bytes, bound)
		if !raceEnabled && bytes > uint64(bound) {
			t.Errorf("k=%d: a request allocated %d B, above the k × cells bound %d B", k, bytes, bound)
		}
	}
}
