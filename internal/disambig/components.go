package disambig

// Component-parallel, memory-bounded resolution.
//
// The voting graph of a real table decomposes into connected components:
// rows and columns rarely couple the whole table, so the graph splits into
// independent islands (per-cell normalisation couples every node of a cell,
// so a cell's nodes always land in one island together). This file labels
// the components with a union-find pass over the SAME join-group records
// buildCSR sorts — without materialising a single edge — then builds,
// propagates and decides each component independently: the request's worker
// pool (internal/pool) takes components through pooled per-component scratch,
// so peak memory is O(largest component × workers) instead of O(whole graph).
//
// Results are bit-identical (same choices, same float64 scores) to one
// propagation loop over the whole table — the single-component case, and what
// the seed reference runs. Two properties make that work:
//
//  1. Within a component, local node ids follow ascending global order, so
//     every CSR in-list keeps the reference summation order and each
//     iteration's arithmetic is bitwise identical to the global loop's.
//
//  2. The global loop stops after the FIRST iteration whose global max
//     delta is sub-eps — a decision that couples otherwise-independent
//     components. The resolver therefore records, per component, which
//     iterations were sub-eps (phase 1 pauses a component at its first
//     sub-eps iteration, or freezes it at an exact bitwise fixed point,
//     where every later iteration provably reproduces the same bits), then
//     a coordinator derives the global stop iteration T from the records —
//     resuming components whose records end before a candidate T — and
//     finally advances every component's saved state to exactly T
//     iterations. max() over non-negative deltas is exact in float64, so
//     splitting the global max into per-component maxima changes nothing.
//
// Total iteration work is at most the global loop's: components frozen at an
// exact fixed point stop early, a single-candidate cell's node — the constant
// 1.0 — is never summed, and a component of such nodes alone is never built.
// The only overhead is re-sorting a resumed component's records, roughly one
// extra build per resumed component in the common case.

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gazetteer"
	"repro/internal/pool"
)

// Options tunes the component-parallel resolver.
type Options struct {
	// Workers bounds how many connected components are built and
	// propagated concurrently (and thereby how many per-component scratch
	// buffers exist at once), and how many chunks a large component's vote
	// summation is cut into; 0 selects min(GOMAXPROCS, 8). Results are
	// bit-identical at every setting — only wall-clock and peak scratch
	// memory change.
	Workers int
}

// Stats describes one resolution: the decomposition's shape and the pooled
// scratch high-water mark.
type Stats struct {
	// Nodes counts the voting graph's (cell, candidate) nodes.
	Nodes int
	// Components is the number of connected components; LargestComponent
	// is the node count of the biggest one.
	Components       int
	LargestComponent int
	// PeakScratchBytes is the high-water mark of per-component scratch
	// (record buffers, voting spans, local CSR, score buffers) held
	// concurrently across the resolve's workers — the O(largest component
	// × workers) bound made observable.
	PeakScratchBytes int64
}

// unionFind is a union-by-minimum disjoint-set forest over node indexes:
// every root is the smallest node of its set, so components come out
// numbered in ascending first-node order for free.
type unionFind []int32

func newUnionFind(n int) unionFind {
	p := make(unionFind, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

func (p unionFind) find(x int32) int32 {
	for p[x] != x {
		p[x] = p[p[x]] // path halving
		x = p[x]
	}
	return x
}

func (p unionFind) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	switch {
	case ra == rb:
	case ra < rb:
		p[rb] = ra
	default:
		p[ra] = rb
	}
}

// decomposition is the labeled node table: every node assigned to exactly
// one connected component, components ordered by their smallest node,
// member lists ascending. workers is the resolve's worker count, which a
// component's vote summation fans out over (0 sums inline).
type decomposition struct {
	ns      *nodeSet
	comps   [][]int32
	workers int
}

// dead reports whether comp holds no live node — no cell with two
// candidates — so that every score in it is the constant 1.0.
func (ns *nodeSet) dead(comp []int32) bool {
	for _, gi := range comp {
		if !ns.constant(gi) {
			return false
		}
	}
	return true
}

// decompose builds the node table and labels its connected components with
// a union-find pass over the join-group records — no edge is ever
// materialised. Per group the chain unions below reach exactly the nodes
// the quadratic edge sets would connect, GIVEN the per-cell unions: within
// a group, every cross-cell pair of container records is an edge (so
// chaining the container segment unions their cells), every cross-cell
// (location, container) pair is an edge in both directions (so bridging the
// two chained segments unions all their cells), and same-cell pairs — the
// only pairs the edge loops skip — are already unioned through their cell.
func decompose(interps []Interpretation, g *gazetteer.Frozen) *decomposition {
	ns := buildNodes(interps, g)
	n := len(ns.locs)
	uf := newUnionFind(n)
	// Per-cell normalisation couples every node of a cell, so a cell's
	// nodes must share a component even when no edge touches them.
	for _, idxs := range ns.cellNodes {
		for k := 1; k < len(idxs); k++ {
			uf.union(idxs[0], idxs[k])
		}
	}
	var b joinBufs
	for dim := 0; dim < 2; dim++ {
		recKey, recNode := ns.joinGroups(dim, nil, &b, false)
		for lo := 0; lo < len(recKey); {
			_, split, _, hi, sharedPar := ns.group(recKey, lo)
			locs, pars := recNode[lo:split], recNode[split:hi]
			if sharedPar {
				for k := 1; k < len(pars); k++ {
					uf.union(pars[0], pars[k])
				}
			}
			if len(locs) > 0 && len(pars) > 0 {
				for k := 1; k < len(locs); k++ {
					uf.union(locs[0], locs[k])
				}
				uf.union(locs[0], pars[0])
			}
			lo = hi
		}
	}

	// Number components by smallest member and gather ascending member
	// lists into one flat allocation. A node's root is never larger than
	// the node itself (union-by-minimum), so roots are labeled before
	// their members.
	compOf := make([]int32, n)
	var counts []int32
	for i := 0; i < n; i++ {
		r := uf.find(int32(i))
		if int(r) == i {
			compOf[i] = int32(len(counts))
			counts = append(counts, 0)
		} else {
			compOf[i] = compOf[r]
		}
		counts[compOf[i]]++
	}
	comps := make([][]int32, len(counts))
	flat := make([]int32, n)
	off := int32(0)
	for c, cnt := range counts {
		comps[c] = flat[off : off : off+cnt]
		off += cnt
	}
	for i := 0; i < n; i++ {
		c := compOf[i]
		comps[c] = append(comps[c], int32(i))
	}
	return &decomposition{ns: ns, comps: comps}
}

// compScratch is one reusable component workspace: the join-group record
// buffers, the nodes' cells and voting spans, the local CSR and the score
// buffers. A worker checks one out of scratchPool per live component and
// regrows it to that component, so a resolve's peak scratch is bounded by the
// largest component times the worker count — never by the table.
type compScratch struct {
	join    joinBufs
	recCell []int32 // the cell of every sorted join record
	spans   []int32 // per local node, the four record spans it votes into
	inOff   []int32
	in      []int32
	fill    []int32
	cells   []int32 // the component's live cell indexes
	live    []int32 // the component's live local node ids, ascending
	scores  []float64
	next    []float64
}

// bytes is the workspace's current footprint, by slice capacity.
func (sc *compScratch) bytes() int64 {
	i32 := cap(sc.join.recNode) + cap(sc.join.tmpNode) + cap(sc.recCell) + cap(sc.spans) +
		cap(sc.inOff) + cap(sc.in) + cap(sc.fill) + cap(sc.cells) + cap(sc.live)
	i64 := cap(sc.join.recKey) + cap(sc.join.tmpKey)
	f64 := cap(sc.scores) + cap(sc.next)
	return int64(i32)*4 + int64(i64)*8 + int64(f64)*8
}

var scratchPool = sync.Pool{New: func() any { return new(compScratch) }}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// compRun is one component's propagation bookkeeping, steered by the
// coordinator: how many iterations its saved state has absorbed, which of
// them were sub-eps, and whether it has reached an exact fixed point.
type compRun struct {
	conv      [(maxIter + 63) / 64]uint64 // bit t-1 set = iteration t's max delta < eps
	frontier  int                         // iterations applied to the saved state
	firstConv int                         // first sub-eps iteration; 0 = none yet
	fixedAt   int                         // first iteration whose delta was exactly 0; 0 = none
}

// convAt reports whether iteration t's max delta is known to be sub-eps.
// Past an exact fixed point the scores are bitwise frozen, so every later
// iteration's delta is exactly 0.
func (r *compRun) convAt(t int) bool {
	if r.fixedAt > 0 && t >= r.fixedAt {
		return true
	}
	if t > r.frontier {
		return false
	}
	return r.conv[(t-1)>>6]&(1<<uint((t-1)&63)) != 0
}

// runComp (re)builds the component's local graph in sc and advances its
// propagation. With resume, the component's saved scores are loaded from
// global; otherwise the per-cell uniform prior restarts it from iteration
// zero. Iterations run from r.frontier+1 through until; with stopAtConv the
// run additionally pauses at the first sub-eps iteration (phase 1), and any
// run freezes at an exact fixed point. Delta bits are recorded into r and
// the final local scores are scattered back to global.
//
// Local node ids are assigned in ascending global-node order, so buildCSR's
// voter-ascending fill leaves in-lists in the reference summation order and
// each iteration is bitwise identical to the whole-table loop restricted to
// this component. Only live nodes are summed, normalised and compared: a
// constant node holds 1.0 throughout (nodeSet.constant) and is read as a
// voter like any other, so every sum sees the same operands in the same
// order, and its delta would be 0. localOf is the shared global-to-local
// index table; components are disjoint, so concurrent workers touch disjoint
// entries. A done ctx stops the run between iterations, its saved state whole
// but short of until.
func (d *decomposition) runComp(ctx context.Context, comp []int32, r *compRun, sc *compScratch, localOf []int32, global []float64, resume, stopAtConv bool, until int) {
	ns := d.ns
	m := len(comp)
	scores := growF64(sc.scores, m)
	next := growF64(sc.next, m)
	sc.scores, sc.next = scores, next
	// The component's live cells, each discovered via its first node (a
	// cell's nodes all land in one component, so the first suffices and each
	// cell appears exactly once), and its live nodes.
	sc.cells, sc.live = sc.cells[:0], sc.live[:0]
	for li, gi := range comp {
		localOf[gi] = int32(li)
		ci := ns.nodeCell[gi]
		idxs := ns.cellNodes[ci]
		if len(idxs) > 1 {
			sc.live = append(sc.live, int32(li))
			if idxs[0] == gi {
				sc.cells = append(sc.cells, ci)
			}
		}
		if resume {
			scores[li] = global[gi]
		} else {
			scores[li] = 1.0 / float64(len(idxs))
		}
	}
	live := sc.live

	inOff, in := ns.buildCSR(comp, sc, true)

	// Large components fan each iteration's vote summation out over the
	// resolve's workers.
	workers := 1
	if len(live) >= propagationParallelThreshold {
		workers = d.workers
	}
	for t := r.frontier + 1; t <= until; t++ {
		if sumVotesCSR(ctx, inOff, in, live, scores, next, workers) != nil {
			break
		}
		for _, ci := range sc.cells {
			idxs := ns.cellNodes[ci]
			var total float64
			for _, gi := range idxs {
				total += next[localOf[gi]]
			}
			if total == 0 {
				u := 1.0 / float64(len(idxs))
				for _, gi := range idxs {
					next[localOf[gi]] = u
				}
				continue
			}
			for _, gi := range idxs {
				next[localOf[gi]] /= total
			}
		}
		var delta float64
		for _, i := range live {
			// Scores are finite and non-negative, so the compare is
			// math.Max without its NaN/±0 handling (an assembly call).
			if d := math.Abs(next[i] - scores[i]); d > delta {
				delta = d
			}
			scores[i] = next[i]
		}
		r.frontier = t
		if delta < eps {
			r.conv[(t-1)>>6] |= 1 << uint((t-1)&63)
			if r.firstConv == 0 {
				r.firstConv = t
			}
			if delta == 0 && r.fixedAt == 0 {
				r.fixedAt = t
			}
			if stopAtConv || r.fixedAt > 0 {
				break
			}
		}
	}
	for li, gi := range comp {
		global[gi] = scores[li]
	}
}

// resolveComponents runs the full component-parallel resolution and returns
// the global score array, one score per node. Every phase hands its selected
// live components to the request's one pool (pool.Run): a worker checks one
// pooled scratch out per component, so at most `workers` components are
// materialised at any moment, and an empty phase, a single component or
// Workers: 1 starts no goroutine. A dead component checks nothing out and is
// never handed to the pool. Once ctx is done the pool hands out nothing more
// and runComp stops between iterations, which turns the remaining phases into
// no-ops; the scores are then partial, and the one check at the end returns
// ctx.Err() instead of them.
func (d *decomposition) resolveComponents(ctx context.Context, opt Options) ([]float64, Stats, error) {
	if len(d.comps) == 0 {
		// No interpretation carries a candidate: there is nothing to score,
		// and no scratch to check out of the pool for it.
		return nil, Stats{}, ctx.Err()
	}
	n := len(d.ns.locs)
	global := make([]float64, n)
	localOf := make([]int32, n)
	runs := make([]compRun, len(d.comps))
	workers := opt.Workers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}
	d.workers = workers
	// A dead component is resolved where it stands: every score is the
	// constant 1.0, which is the state the loop reaches at iteration 1 with a
	// delta of exactly 0 — an exact fixed point, frozen for any T.
	for ci, comp := range d.comps {
		if d.ns.dead(comp) {
			for _, gi := range comp {
				global[gi] = 1
			}
			runs[ci] = compRun{frontier: 1, firstConv: 1, fixedAt: 1}
			runs[ci].conv[0] = 1
		}
	}
	var curBytes, peakBytes atomic.Int64
	raise := func(v int64) {
		for {
			p := peakBytes.Load()
			if v <= p || peakBytes.CompareAndSwap(p, v) {
				return
			}
		}
	}
	runPhase := func(sel []int, resume, stopAtConv bool, until int) {
		// The pool's error is ctx's, read once after the last phase.
		_ = pool.Run(ctx, workers, len(sel), func(k int) {
			sc := scratchPool.Get().(*compScratch)
			held := sc.bytes()
			raise(curBytes.Add(held))
			d.runComp(ctx, d.comps[sel[k]], &runs[sel[k]], sc, localOf, global, resume, stopAtConv, until)
			grown := sc.bytes()
			raise(curBytes.Add(grown - held))
			curBytes.Add(-grown)
			scratchPool.Put(sc)
		})
	}
	// selected lists, ascending, the components a phase has to advance.
	selected := func(keep func(r *compRun) bool) []int {
		var sel []int
		for ci := range runs {
			if keep(&runs[ci]) {
				sel = append(sel, ci)
			}
		}
		return sel
	}

	// Phase 1: every live component propagates until its first sub-eps
	// iteration (or an exact fixed point, or maxIter), recording which
	// iterations were sub-eps.
	runPhase(selected(func(r *compRun) bool { return r.fixedAt == 0 }), false, true, maxIter)

	// Coordinator: the whole-table loop stops after the FIRST iteration
	// whose global max delta is sub-eps — equivalently, the first t at
	// which EVERY component's delta is sub-eps — or after maxIter.
	// Determine that T from the records, resuming components whose
	// records end before a candidate t. The initial candidate is the
	// slowest component's first sub-eps iteration: no earlier t can
	// qualify, because that component's deltas before it are all >= eps.
	target := 0
	for i := range runs {
		ft := runs[i].firstConv
		if ft == 0 {
			ft = maxIter
		}
		target = max(target, ft)
	}
	T := maxIter
	for {
		runPhase(selected(func(r *compRun) bool { return r.fixedAt == 0 && r.frontier < target }), true, false, target)
		found := -1
		for t := 1; t <= target && found < 0; t++ {
			ok := true
			for i := range runs {
				if !runs[i].convAt(t) {
					ok = false
					break
				}
			}
			if ok {
				found = t
			}
		}
		if found >= 0 {
			T = found
			break
		}
		if target >= maxIter {
			break // no sub-eps iteration exists; the loop exhausts maxIter
		}
		// Some component dipped back above eps at the candidate (deltas
		// need not shrink monotonically): extend the horizon and keep
		// looking.
		target = min(target+8, maxIter)
	}

	// Final phase: bring every component's saved state to exactly T
	// iterations. A component frozen at an exact fixed point by iteration
	// f is bitwise identical from f-1 onward, so it already holds the
	// T-state whenever T >= fixedAt-1. Lagging components resume; a
	// component whose record ran PAST T — possible only when the stop
	// search extended past a non-monotone delta dip — reruns from its
	// prior.
	rerun := selected(func(r *compRun) bool {
		if r.fixedAt > 0 {
			return T < r.fixedAt-1
		}
		return r.frontier > T
	})
	for _, ci := range rerun {
		runs[ci] = compRun{}
	}
	runPhase(rerun, false, false, T)
	// A rerun component now sits at T (or froze on the way), so it is not
	// selected again.
	runPhase(selected(func(r *compRun) bool { return r.fixedAt == 0 && r.frontier < T }), true, false, T)
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}

	st := Stats{Nodes: n, Components: len(d.comps), PeakScratchBytes: peakBytes.Load()}
	for _, comp := range d.comps {
		st.LargestComponent = max(st.LargestComponent, len(comp))
	}
	return global, st, nil
}

// ResolveScoresOpt runs the iterative vote propagation and picks, for every
// cell, the candidate whose node accumulated the largest score; it returns the
// winners, the final per-node scores keyed by cell and location, and the
// decomposition statistics — the diagnostic and benchmark form of
// ResolvePositional, run under context.Background(). Scores start at 1/|L_ij|
// (an unambiguous cell casts a full-weight vote). Each iteration recomputes
// S(n) = Σ_{v∈IN(n)} S(v); scores are then re-normalised within every cell's
// candidate set so the iteration reaches a fixed point — the raw update of the
// paper grows without bound on cyclic graphs, and per-cell normalisation
// preserves the ranking while guaranteeing convergence (see DESIGN.md). Cells
// whose candidates receive no votes keep their uniform prior. Ties select the
// smallest LocID for determinism (the paper chooses randomly). A cell whose
// every interpretation had an empty (or all-invalid) candidate set maps to
// NoLocation with an empty score map — present in the result, explicitly
// unresolved, rather than silently missing. Results are bit-identical to the
// seed reference at every worker count.
func ResolveScoresOpt(interps []Interpretation, g *gazetteer.Frozen, opt Options) (map[CellRef]gazetteer.LocID, map[CellRef]map[gazetteer.LocID]float64, Stats) {
	d := decompose(interps, g)
	// A background context is never done, so the error is always nil.
	scores, st, _ := d.resolveComponents(context.Background(), opt)
	choice, detail := d.ns.choose(scores)
	return choice, detail, st
}

// Choice is one interpretation's outcome: the chosen location and its share of
// the cell's final score distribution; (NoLocation, 0) for a cell the graph
// never saw a candidate for.
type Choice struct {
	Loc   gazetteer.LocID
	Score float64
}

// ResolvePositional resolves like ResolveScoresOpt but returns each cell's
// winner and its score positionally — out[i] is the outcome of interps[i]'s
// cell — so a caller rendering one result per interpretation builds no map.
// Components are independent; the request's ctx is checked between them and
// between propagation iterations, and once it is done the error is ctx.Err()
// and no choice is returned: a table is scored whole or not at all.
func ResolvePositional(ctx context.Context, interps []Interpretation, g *gazetteer.Frozen, opt Options) ([]Choice, Stats, error) {
	d := decompose(interps, g)
	scores, st, err := d.resolveComponents(ctx, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]Choice, len(interps))
	for i, ci := range d.ns.interpCell {
		out[i].Loc, out[i].Score = d.ns.best(ci, scores)
	}
	return out, st, nil
}
