// Package disambig implements the PageRank-style toponym disambiguation of
// §5.2.2: every ambiguous address cell contributes one node per candidate
// geocoder interpretation, candidates that share a geographic container and
// sit in the same row or column vote for each other, and iterative score
// propagation selects the interpretation with the largest score.
//
// The voting graph is built sparsely: instead of testing every ordered node
// pair (the O(n²) construction the paper implies, kept as an executable
// specification in reference_test.go), nodes are bucketed by row and by
// column and, within each bucket, grouped by their location and by their
// direct container. The three ways two locations can cohere — equal direct
// containers, or one being the direct container of the other — are then
// read off radix-sorted join groups, with no hash map from cell to node, so
// construction costs O(nodes + edges) instead of O(nodes²). Adjacency is stored as CSR arrays and score propagation
// parallelises over nodes for large tables. Results are bit-identical to the
// reference: the same choices and the same float64 scores (differential and
// fuzz enforced).
package disambig

import (
	"context"

	"repro/internal/gazetteer"
	"repro/internal/pool"
)

// CellRef identifies a table cell by 1-based row and column indexes, matching
// the paper's T(i,j) notation.
type CellRef struct {
	Row, Col int
}

// Interpretation is the geocoder output for one cell: the candidate locations
// the cell's address may denote. A repeated candidate adds no information, so
// duplicates are dropped during graph construction (they would otherwise
// split the cell's uniform prior and vote twice); the invalid NoLocation id
// is ignored. An empty candidate set marks the cell as geocoder-unresolvable
// and resolves to an explicit NoLocation entry.
type Interpretation struct {
	Cell       CellRef
	Candidates []gazetteer.LocID
}

// Graph is the voting graph of Figure 7b in columnar form: the node table
// (one entry per (cell, candidate) node, cells deduplicated in
// first-appearance order) plus the in-edge lists concatenated CSR-style with
// every list sorted by voter index — the exact summation order of the
// reference implementation, which keeps the propagated float64 scores
// bit-identical.
type Graph struct {
	*nodeSet

	inOff []int32 // CSR: node i's voters are in[inOff[i]:inOff[i+1]]
	in    []int32
}

// radixSortByKey stable-sorts the parallel (keys, nodes) record arrays by
// key read as unsigned, least-significant byte first, using as many 8-bit
// passes as max (the largest key, read as unsigned) needs. A pass whose byte
// is the same in every key is skipped, and the passes alternate between the
// records and the tmp arrays, copying back only when they end in tmp. All
// buffers are caller-allocated, so sorting allocates nothing.
func radixSortByKey(keys []int64, nodes []int32, tmpK []int64, tmpN []int32, max int64) {
	n := len(keys)
	if n == 0 {
		return
	}
	var cnt [256]int32
	srcK, srcN, dstK, dstN := keys, nodes[:n], tmpK[:n], tmpN[:n]
	for shift := uint(0); shift < 64 && uint64(max)>>shift > 0; shift += 8 {
		clear(cnt[:])
		for _, k := range srcK {
			cnt[uint64(k)>>shift&0xff]++
		}
		if cnt[uint64(srcK[0])>>shift&0xff] == int32(n) {
			continue // every key holds the same byte here: the pass would move nothing
		}
		sum := int32(0)
		for b := range cnt {
			cnt[b], sum = sum, sum+cnt[b]
		}
		for i, k := range srcK {
			b := uint64(k) >> shift & 0xff
			at := cnt[b]
			dstK[at] = k
			dstN[at] = srcN[i]
			cnt[b] = at + 1
		}
		srcK, srcN, dstK, dstN = dstK, dstN, srcK, srcN
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(nodes, srcN)
	}
}

// nodeSet is the deduplicated node table of one resolution — every array
// BuildGraph and the component decomposition share before any edge exists:
// the (cell, candidate) nodes in input order, their precomputed direct
// containers, and the dense row/column bucket ids the join-group walks key
// on.
type nodeSet struct {
	g *gazetteer.Frozen

	cells      []CellRef // deduplicated cells, ascending by (row, column)
	interpCell []int32   // interpretation -> index into cells
	cellNodes  [][]int32 // node indexes per cell, ascending
	nodeCell   []int32   // node -> index into cells
	locs       []gazetteer.LocID
	parents    []gazetteer.LocID // locs' direct containers, precomputed

	cellRowB, cellColB []int32 // cell -> dense row / column bucket id
	numRowB, numColB   int
	maxKey             int64 // gazetteer size + 1; location ids key below it
}

// buildNodes constructs the node table: one node per distinct (cell,
// candidate) pair in input order, duplicates and NoLocation candidates
// dropped, plus the per-cell bucket ids. A node pair shares at most one
// bucket (same row and same column would mean the same cell).
// The cells are numbered in b's record arrays.
func buildNodes(interps []Interpretation, g *gazetteer.Frozen, b *joinBufs) *nodeSet {
	ns := &nodeSet{g: g, maxKey: int64(g.Len()) + 1}
	capHint := 0
	for _, it := range interps {
		capHint += len(it.Candidates)
	}
	ns.locs = make([]gazetteer.LocID, 0, capHint)
	ns.parents = make([]gazetteer.LocID, 0, capHint)
	ns.nodeCell = make([]int32, 0, capHint)
	// Sized for the join-group sorts too: the nodes number at most capHint.
	b.ensure(max(len(interps), capHint))
	ns.numberCells(interps, b)
	room := make([]int32, len(ns.cells)) // per cell: its candidates over all its interpretations, a bound on its nodes
	for i, it := range interps {
		room[ns.interpCell[i]] += int32(len(it.Candidates))
	}
	// Every cell's node list is a window of one flat array, filled below.
	flat := make([]int32, capHint)
	ns.cellNodes = make([][]int32, len(ns.cells))
	off := int32(0)
	for ci, r := range room {
		ns.cellNodes[ci] = flat[off : off : off+r]
		off += r
	}
	for i, it := range interps {
		ci := ns.interpCell[i]
		nodes := ns.cellNodes[ci]
		// A geocoder lists candidates in ascending order, so a candidate above
		// the cell's largest so far is new without looking; any other is looked
		// for among the cell's own nodes.
		largest := gazetteer.NoLocation
		for _, ni := range nodes {
			largest = max(largest, ns.locs[ni])
		}
	candidates:
		for _, loc := range it.Candidates {
			if loc == gazetteer.NoLocation {
				continue
			}
			if loc <= largest {
				for _, ni := range nodes {
					if ns.locs[ni] == loc {
						continue candidates
					}
				}
			}
			largest = max(largest, loc)
			nodes = append(nodes, int32(len(ns.locs)))
			ns.locs = append(ns.locs, loc)
			ns.parents = append(ns.parents, g.Parent(loc))
			ns.nodeCell = append(ns.nodeCell, ci)
		}
		ns.cellNodes[ci] = nodes
	}
	return ns
}

// numberCells gives every interpretation its cell's dense id and every cell
// its dense row and column bucket ids, without a map: the interpretations are
// radix-sorted by column, then stably by row, each key offset by its smallest
// value so that any int sorts without overflow, and the ids are counted off
// the sorted order — cells and rows ascending by (row, column), columns
// ascending. Equal cells, whatever their order in the input, sort next to
// each other and share one id. The sort runs in b's record arrays, which the
// caller has sized for the interpretations and the join-group sorts reuse
// after it.
func (ns *nodeSet) numberCells(interps []Interpretation, b *joinBufs) {
	n := len(interps)
	keys, tmpK := b.recKey[:n], b.tmpKey[:n]
	order, tmpN, colOf := b.recNode[:n], b.tmpNode[:n], b.recNode[n:2*n] // colOf: interpretation -> column bucket id
	ns.interpCell = make([]int32, n)
	ns.cells = make([]CellRef, 0, n)
	ns.cellRowB, ns.cellColB = make([]int32, 0, n), make([]int32, 0, n)
	for i := range order {
		order[i] = int32(i)
	}
	radixSortByKey(keys, order, tmpK, tmpN, offsetKeys(interps, order, keys, false))
	col := int32(-1)
	for p, i := range order {
		if p == 0 || keys[p] != keys[p-1] {
			col++
		}
		colOf[i] = col
	}
	radixSortByKey(keys, order, tmpK, tmpN, offsetKeys(interps, order, keys, true))
	row, cell := int32(-1), int32(-1)
	for p, i := range order {
		newRow := p == 0 || keys[p] != keys[p-1]
		if newRow {
			row++
		}
		if newRow || colOf[i] != colOf[order[p-1]] {
			cell++
			ns.cells = append(ns.cells, interps[i].Cell)
			ns.cellRowB = append(ns.cellRowB, row)
			ns.cellColB = append(ns.cellColB, colOf[i])
		}
		ns.interpCell[i] = cell
	}
	ns.numRowB, ns.numColB = int(row+1), int(col+1)
}

// offsetKeys keys the interpretations, in the given order, by their cell's
// row (or column) minus the smallest one, as unsigned — so every int, the
// extremes included, keys in order without overflow — and returns the
// largest key.
func offsetKeys(interps []Interpretation, order []int32, keys []int64, row bool) int64 {
	at := func(c CellRef) int {
		if row {
			return c.Row
		}
		return c.Col
	}
	lo, hi := 0, 0
	for i, it := range interps {
		v := at(it.Cell)
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	for p, i := range order {
		keys[p] = int64(uint64(at(interps[i].Cell)) - uint64(lo))
	}
	return int64(uint64(hi) - uint64(lo))
}

// joinBufs holds the reusable record arrays of the join-group sorts: the keys
// and the sort's other halves serve one dimension at a time, the sorted node
// records of both dimensions stay side by side in recNode.
type joinBufs struct {
	recKey, tmpKey   []int64
	recNode, tmpNode []int32
}

func (b *joinBufs) ensure(n int) {
	if cap(b.recKey) < 2*n {
		b.recKey = make([]int64, 2*n)
		b.tmpKey = make([]int64, 2*n)
		b.recNode = make([]int32, 4*n)
		b.tmpNode = make([]int32, 2*n)
	}
}

// constant reports whether node gi is its cell's only candidate. Such a node
// scores exactly 1.0 at every iteration: the prior is 1/1, a positive finite
// sum x normalises to x/x = 1 and a zero sum to the uniform 1/1. It still
// votes, but nothing it receives can change it.
func (ns *nodeSet) constant(gi int32) bool {
	return len(ns.cellNodes[ns.nodeCell[gi]]) == 1
}

// joinGroups sorts the join records of one dimension (0 = rows, 1 = columns)
// over the given ascending global node indexes (nil takes every node): every
// node contributes two records keyed by (bucket, location id) — one for its
// own location, one for its direct container — and is named in them by its
// position in nodes, its local id. The key's two low bits order a group's
// records as location records of constant nodes, of live nodes, then
// container records of live nodes, of constant nodes; without markConst every
// node counts as live. Radix-sorting the flat record arrays groups the
// bucket's nodes around each location id with zero hash lookups. It returns
// the sorted keys, for group to cut, and the sorted records, which are
// recNode's window for dim and survive the other dimension's sort.
func (ns *nodeSet) joinGroups(dim int, nodes []int32, b *joinBufs, markConst bool) (recKey []int64, recNode []int32) {
	n := len(ns.locs)
	if nodes != nil {
		n = len(nodes)
	}
	b.ensure(n)
	recKey, recNode = b.recKey[:2*n], b.recNode[2*n*dim:2*n*(dim+1)]
	bucketOf, numBuckets := ns.cellRowB, ns.numRowB
	if dim == 1 {
		bucketOf, numBuckets = ns.cellColB, ns.numColB
	}
	for k := 0; k < n; k++ {
		gi := int32(k)
		if nodes != nil {
			gi = nodes[k]
		}
		c := int64(0)
		if markConst && ns.constant(gi) {
			c = 1
		}
		base := int64(bucketOf[ns.nodeCell[gi]]) * ns.maxKey
		recKey[2*k] = (base+int64(ns.locs[gi]))<<2 | (1 - c) // own location: 0 constant, 1 live
		recNode[2*k] = int32(k)
		recKey[2*k+1] = (base+int64(ns.parents[gi]))<<2 | 2 | c // container: 2 live, 3 constant
		recNode[2*k+1] = int32(k)
	}
	radixSortByKey(recKey, recNode, b.tmpKey[:2*n], b.tmpNode[:2*n], (int64(numBuckets)*ns.maxKey)<<2)
	return recKey, recNode
}

// group cuts the join group that starts at lo out of the sorted keys: its
// location records are [lo, split), of which the live ones are [locLive,
// split), and its container records [split, hi), of which the live ones are
// [split, parLive). sharedPar reports whether the group's location id is a
// real location — NoLocation as a shared "container" does not count, so
// equal-container voting applies only when it is set.
func (ns *nodeSet) group(recKey []int64, lo int) (locLive, split, parLive, hi int, sharedPar bool) {
	gid := recKey[lo] >> 2
	var cnt [4]int
	hi = lo
	for hi < len(recKey) && recKey[hi]>>2 == gid {
		cnt[recKey[hi]&3]++
		hi++
	}
	locLive = lo + cnt[0]
	split = locLive + cnt[1]
	parLive = split + cnt[2]
	return locLive, split, parLive, hi, gid%ns.maxKey != 0
}

// BuildGraph constructs the whole-table voting graph: the single-component
// case of the component engine (components.go), whose per-component builder
// it calls over every node at once, every node live so that every in-list is
// built. A directed edge v -> w exists iff v and w belong to cells in the same
// row or the same column (but not the same cell) and their locations share a
// geographic container in the paper's sense: equal direct containers, or one
// location being the direct container of the other (the street "Pennsylvania
// Ave, Washington" votes for the city "Washington, D.C." in the same row, and
// vice versa).
func BuildGraph(interps []Interpretation, g *gazetteer.Frozen) *Graph {
	var sc compScratch
	ns := buildNodes(interps, g, &sc.join)
	inOff, in := ns.buildCSR(ns.allNodes(), &sc, false)
	return &Graph{nodeSet: ns, inOff: inOff, in: in}
}

// allNodes lists every node id in ascending order: the whole table as one
// component.
func (ns *nodeSet) allNodes() []int32 {
	all := make([]int32, len(ns.locs))
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// buildCSR builds the voting graph among comp's nodes (ascending global ids,
// so a node's position in comp is its local id) as sc's local CSR arrays,
// which it returns. With markConst a constant node's in-list is left empty:
// it votes, but no sum is ever taken for it. No edge is staged or sorted.
//
// Both dimensions' sorted join records stay live, and every node notes the
// four record spans it votes into — per dimension, the live container records
// of the group keyed by its own location (it is their direct container), and
// of the group keyed by its container the live location records plus, when
// the container is a real location, the live container records (its
// siblings); joinGroups's key order makes each of those one contiguous range.
// Spans name nodes of the voter's own cell too; those are skipped wherever a
// span is read. The clauses are mutually exclusive (a location is never its
// own container and containment is acyclic) and a node pair shares at most one
// bucket, so the spans of v hold each live target of v exactly once: one pass
// over the voters counts the in-degrees, and a second, in ascending voter
// order, writes v at the tail of each of its targets' lists. Both touch only
// the in-list entries of live targets, and every in-list is in ascending voter
// order because the loop is — the reference implementation's float summation
// order.
func (ns *nodeSet) buildCSR(comp []int32, sc *compScratch, markConst bool) (inOff, in []int32) {
	m := len(comp)
	spans := growI32(sc.spans, 8*m) // per node: (lo, hi) into rec × {own location, container} × dimension
	for dim := 0; dim < 2; dim++ {
		recKey, recNode := ns.joinGroups(dim, comp, &sc.join, markConst)
		base, at := int32(2*m*dim), int32(4*dim)
		for lo := 0; lo < len(recKey); {
			locLive, split, parLive, hi, sharedPar := ns.group(recKey, lo)
			for _, v := range recNode[lo:split] {
				s := spans[8*v+at:]
				s[0], s[1] = base+int32(split), base+int32(parLive)
			}
			// Without a shared container only the container-of pairs vote.
			end := split
			if sharedPar {
				end = parLive
			}
			for _, v := range recNode[split:hi] {
				s := spans[8*v+at:]
				s[2], s[3] = base+int32(locLive), base+int32(end)
			}
			lo = hi
		}
	}
	rec := sc.join.recNode[:4*m]
	recCell := growI32(sc.recCell, 4*m) // the records' cells, read in step with rec
	for p, t := range rec {
		recCell[p] = ns.nodeCell[comp[t]]
	}

	inOff = growI32(sc.inOff, m+1)
	clear(inOff)
	for v, gi := range comp {
		own := ns.nodeCell[gi]
		for s := 8 * v; s < 8*v+8; s += 2 {
			cells := recCell[spans[s]:spans[s+1]]
			for p, t := range rec[spans[s]:spans[s+1]] {
				if cells[p] != own {
					inOff[t+1]++
				}
			}
		}
	}
	for v := 0; v < m; v++ {
		inOff[v+1] += inOff[v]
	}
	in = growI32(sc.in, int(inOff[m]))
	fill := growI32(sc.fill, m)
	copy(fill, inOff[:m])
	for v, gi := range comp {
		own := ns.nodeCell[gi]
		for s := 8 * v; s < 8*v+8; s += 2 {
			cells := recCell[spans[s]:spans[s+1]]
			for p, t := range rec[spans[s]:spans[s+1]] {
				if cells[p] != own {
					in[fill[t]] = int32(v)
					fill[t]++
				}
			}
		}
	}
	sc.spans, sc.recCell, sc.inOff, sc.in, sc.fill = spans, recCell, inOff, in, fill
	return inOff, in
}

// choose picks every cell's winner from the final per-node scores and
// returns it with the cell's full score distribution. A cell whose every
// interpretation had an empty (or all-invalid) candidate set maps to
// NoLocation with an empty score map — present in the result, explicitly
// unresolved, rather than silently missing.
func (ns *nodeSet) choose(scores []float64) (map[CellRef]gazetteer.LocID, map[CellRef]map[gazetteer.LocID]float64) {
	choice := make(map[CellRef]gazetteer.LocID, len(ns.cells))
	detail := make(map[CellRef]map[gazetteer.LocID]float64, len(ns.cells))
	for ci, cell := range ns.cells {
		idxs := ns.cellNodes[ci]
		m := make(map[gazetteer.LocID]float64, len(idxs))
		for _, i := range idxs {
			m[ns.locs[i]] = scores[i]
		}
		choice[cell], _ = ns.best(int32(ci), scores)
		detail[cell] = m
	}
	return choice, detail
}

// best is one cell's winner and its score: the largest score, ties broken by
// the smallest LocID for determinism (the paper chooses randomly);
// (NoLocation, 0) for a cell without candidates.
func (ns *nodeSet) best(ci int32, scores []float64) (gazetteer.LocID, float64) {
	best, bestScore := gazetteer.NoLocation, 0.0
	for _, i := range ns.cellNodes[ci] {
		loc := ns.locs[i]
		if best == gazetteer.NoLocation || scores[i] > bestScore || (scores[i] == bestScore && loc < best) {
			best, bestScore = loc, scores[i]
		}
	}
	return best, bestScore
}

// propagationParallelThreshold is the live-node count above which a
// component's per-iteration vote summation fans out over the resolve's
// workers. Each node's sum is independent, so the cut-over changes wall-clock
// only, never results.
const propagationParallelThreshold = 2048

// maxIter and eps are the fixed-point iteration's stopping rule: the loop
// ends after the first iteration whose largest per-node score change drops
// below eps, or after maxIter iterations — a whole-table decision, which the
// component-parallel resolver reproduces across independently-propagated
// components (see components.go).
const (
	maxIter = 100
	eps     = 1e-9
)

// sumVotesCSR computes next[i] = Σ scores[voters of i] for every node i in
// live, cutting live into one chunk per worker for the pool. Every in-list is
// summed in ascending voter order regardless of the worker count, so the
// result is bitwise deterministic. The error is ctx.Err() when ctx is done,
// and next is then not fully written.
//
// One worker sums in place rather than through the pool: this runs once per
// iteration of every component, and a pool call costs four heap allocations
// (BenchmarkResolve: 695 -> 1540 allocs/op with it, about 10% slower), which
// the small components that make up most tables would pay ten to thirty times
// each.
func sumVotesCSR(ctx context.Context, inOff, in, live []int32, scores, next []float64, workers int) error {
	n := len(live)
	if workers <= 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		sumVotesRange(inOff, in, live, scores, next)
		return nil
	}
	chunk := (n + workers - 1) / workers
	return pool.Run(ctx, workers, workers, func(k int) {
		sumVotesRange(inOff, in, live[min(k*chunk, n):min((k+1)*chunk, n)], scores, next)
	})
}

// sumVotesRange is sumVotesCSR over the given nodes — a function, not a
// closure, so that the one-worker call allocates nothing.
func sumVotesRange(inOff, in, nodes []int32, scores, next []float64) {
	for _, i := range nodes {
		var sum float64
		for _, v := range in[inOff[i]:inOff[i+1]] {
			sum += scores[v]
		}
		next[i] = sum
	}
}
