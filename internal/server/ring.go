package server

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/table"
)

// ring is the consistent-hash layout the Router places tables with: each
// worker owns ringVirtualNodes points on a 64-bit circle, and a request key —
// the FNV-1a hash of the table's CANONICAL bytes, so two clients sending the
// same table with different JSON formatting land on the same replica — is
// served by the first distinct workers clockwise from it. Virtual nodes keep
// the load split even with a handful of workers, and consistent hashing
// keeps most placements stable when a worker joins or leaves: only the keys
// in the departed worker's arcs move.
type ring struct {
	points  []ringPoint
	workers int
}

type ringPoint struct {
	hash   uint64
	worker int
}

// newRing hashes every worker onto the circle vnodes times. The worker list
// order is the identity: point i of worker w hashes "w#i" of the worker's
// URL, so rings built from the same worker list agree across processes.
func newRing(workers []string, vnodes int) *ring {
	r := &ring{
		points:  make([]ringPoint, 0, len(workers)*vnodes),
		workers: len(workers),
	}
	for w, url := range workers {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hashBytes([]byte(fmt.Sprintf("%s#%d", url, i))),
				worker: w,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between two workers' points is vanishingly
		// rare but must still order deterministically.
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// owners returns the first n distinct workers clockwise from key — the key's
// replica set, primary first. n is clamped to the worker count.
func (r *ring) owners(key uint64, n int) []int {
	if n > r.workers {
		n = r.workers
	}
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, p.worker)
		}
	}
	return out
}

// tableKey hashes the table's canonical rendering — the bytes table.WriteJSON
// emits — so ring placement is a pure function of the table's content, not of
// the client's JSON formatting.
func tableKey(tbl *table.Table) uint64 {
	var buf bytes.Buffer
	// Strings encoded into a buffer: neither step can fail.
	_ = table.WriteJSON(&buf, tbl)
	return hashBytes(buf.Bytes())
}
