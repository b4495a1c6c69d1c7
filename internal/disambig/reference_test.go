package disambig

// The seed implementation of the voting graph, kept verbatim as an
// executable specification: all-pairs O(n²) edge construction and the
// map-based score propagation. The production implementation in disambig.go
// (bucketed sparse edges, CSR adjacency, parallel propagation) must stay
// BIT-identical to it — same choices AND the same float64 scores, enforced
// by the differential and fuzz tests below. The only sanctioned divergences
// are the documented input-hygiene extensions of the rewrite: duplicate
// candidates within a cell are deduplicated, and a cell whose candidate set
// is empty resolves to an explicit NoLocation entry (the reference drops
// duplicates and empty cells on the floor); the tests canonicalise inputs
// and outputs accordingly before comparing.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gazetteer"
)

// refNode is one (cell, candidate) pair in the reference voting graph.
type refNode struct {
	cell CellRef
	loc  gazetteer.LocID
	in   []int // indexes of nodes voting for this node
}

// refGraph is the reference voting graph.
type refGraph struct {
	nodes []refNode
	g     *gazetteer.Frozen
}

// refBuildGraph is the seed BuildGraph: every ordered node pair is examined.
func refBuildGraph(interps []Interpretation, g *gazetteer.Frozen) *refGraph {
	gr := &refGraph{g: g}
	for _, it := range interps {
		for _, loc := range it.Candidates {
			gr.nodes = append(gr.nodes, refNode{cell: it.Cell, loc: loc})
		}
	}
	for i := range gr.nodes {
		for j := range gr.nodes {
			if i == j {
				continue
			}
			a, b := &gr.nodes[i], &gr.nodes[j]
			if a.cell == b.cell {
				continue
			}
			if a.cell.Row != b.cell.Row && a.cell.Col != b.cell.Col {
				continue
			}
			if gr.shareContainer(a.loc, b.loc) {
				b.in = append(b.in, i)
			}
		}
	}
	return gr
}

func (gr *refGraph) shareContainer(l1, l2 gazetteer.LocID) bool {
	p1, p2 := gr.g.Parent(l1), gr.g.Parent(l2)
	return (p1 != gazetteer.NoLocation && p1 == p2) || p1 == l2 || p2 == l1
}

func (gr *refGraph) edgeCount() int {
	n := 0
	for i := range gr.nodes {
		n += len(gr.nodes[i].in)
	}
	return n
}

// refResolveScores is the seed ResolveScores: iterative vote propagation
// with per-cell normalisation, smallest-LocID tie-break.
func refResolveScores(interps []Interpretation, g *gazetteer.Frozen) (map[CellRef]gazetteer.LocID, map[CellRef]map[gazetteer.LocID]float64) {
	gr := refBuildGraph(interps, g)
	cellNodes := refCellNodes(gr)
	scores := refPropagate(gr, cellNodes, nil)

	choice := make(map[CellRef]gazetteer.LocID, len(cellNodes))
	detail := make(map[CellRef]map[gazetteer.LocID]float64, len(cellNodes))
	for cell, idxs := range cellNodes {
		sort.Ints(idxs)
		best, bestScore := gazetteer.NoLocation, math.Inf(-1)
		m := make(map[gazetteer.LocID]float64, len(idxs))
		for _, i := range idxs {
			nd := gr.nodes[i]
			m[nd.loc] = scores[i]
			if scores[i] > bestScore || (scores[i] == bestScore && nd.loc < best) {
				best, bestScore = nd.loc, scores[i]
			}
		}
		choice[cell] = best
		detail[cell] = m
	}
	return choice, detail
}

// refCellNodes groups the reference graph's node indexes by cell.
func refCellNodes(gr *refGraph) map[CellRef][]int {
	cellNodes := map[CellRef][]int{}
	for i, nd := range gr.nodes {
		cellNodes[nd.cell] = append(cellNodes[nd.cell], i)
	}
	return cellNodes
}

// refPropagate is the seed propagation loop: from the per-cell uniform prior,
// sum the in-lists, normalise per cell, stop after the first iteration whose
// max delta is below eps or after maxIter. It returns the final scores and,
// when step is non-nil, hands it every iteration's scores before (prev) and
// after (cur) the iteration.
func refPropagate(gr *refGraph, cellNodes map[CellRef][]int, step func(prev, cur []float64)) []float64 {
	n := len(gr.nodes)
	scores := make([]float64, n)
	for _, idxs := range cellNodes {
		init := 1.0 / float64(len(idxs))
		for _, i := range idxs {
			scores[i] = init
		}
	}

	const (
		maxIter = 100
		eps     = 1e-9
	)
	next := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		for i := range gr.nodes {
			var sum float64
			for _, v := range gr.nodes[i].in {
				sum += scores[v]
			}
			next[i] = sum
		}
		for _, idxs := range cellNodes {
			var total float64
			for _, i := range idxs {
				total += next[i]
			}
			if total == 0 {
				u := 1.0 / float64(len(idxs))
				for _, i := range idxs {
					next[i] = u
				}
				continue
			}
			for _, i := range idxs {
				next[i] /= total
			}
		}
		var delta float64
		for i := range scores {
			delta = math.Max(delta, math.Abs(next[i]-scores[i]))
		}
		if step != nil {
			step(scores, next)
		}
		copy(scores, next)
		if delta < eps {
			break
		}
	}
	return scores
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

// checkEquivalence resolves the interps through both implementations and
// fails on any divergence: edge/node counts, choices, and bitwise scores.
// Inputs must be canonical (no duplicate candidates within a cell); empty
// candidate sets are allowed — the production NoLocation entries are peeled
// off before comparing against the reference's omissions. The production side
// runs at each of the given worker counts (none: the default).
func checkEquivalence(t *testing.T, interps []Interpretation, g *gazetteer.Frozen, workers ...int) {
	t.Helper()
	ref := refBuildGraph(interps, g)
	gr := BuildGraph(interps, g)
	if ref.edgeCount() != len(gr.in) {
		t.Fatalf("edge count: reference %d, sparse %d", ref.edgeCount(), len(gr.in))
	}
	if len(ref.nodes) != len(gr.locs) {
		t.Fatalf("node count: reference %d, sparse %d", len(ref.nodes), len(gr.locs))
	}

	refChoice, refDetail := refResolveScores(interps, g)
	if len(workers) == 0 {
		workers = []int{0}
	}
	for _, w := range workers {
		choice, detail, _ := ResolveScoresOpt(interps, g, Options{Workers: w})
		sameAsReference(t, refChoice, refDetail, choice, detail)
	}
}

// sameAsReference fails on any difference between a production resolution and
// the reference's: choices, and scores bit for bit.
func sameAsReference(t *testing.T, refChoice map[CellRef]gazetteer.LocID, refDetail map[CellRef]map[gazetteer.LocID]float64, choice map[CellRef]gazetteer.LocID, detail map[CellRef]map[gazetteer.LocID]float64) {
	t.Helper()
	for cell, loc := range choice {
		if loc == gazetteer.NoLocation {
			if _, ok := refChoice[cell]; ok {
				t.Fatalf("cell %v: NoLocation for a cell the reference resolves", cell)
			}
			continue
		}
		if refChoice[cell] != loc {
			t.Fatalf("cell %v: reference chose %v, sparse chose %v", cell, refChoice[cell], loc)
		}
	}
	for cell := range refChoice {
		if _, ok := choice[cell]; !ok {
			t.Fatalf("cell %v resolved by the reference but missing from the sparse result", cell)
		}
	}
	for cell, m := range refDetail {
		got := detail[cell]
		if len(got) != len(m) {
			t.Fatalf("cell %v: score map sizes differ (%d vs %d)", cell, len(got), len(m))
		}
		for loc, s := range m {
			// Bitwise equality: the sparse propagation must perform the
			// same float64 additions in the same order.
			if got[loc] != s {
				t.Fatalf("cell %v loc %v: reference score %v, sparse score %v", cell, loc, got[loc], s)
			}
		}
	}
}

func TestSparseMatchesReferenceFigure7(t *testing.T) {
	g, interps, _ := figure7(t)
	checkEquivalence(t, interps, g)
}

// randomInterps derives a canonical random interpretation grid: cells in a
// rows×cols window, candidates drawn (without duplicates) from the
// gazetteer's id space, occasionally empty. Drawing from LookupAny of real
// names keeps the candidate sets realistically coherent; raw random ids keep
// the graph shapes adversarial. Both appear.
func randomInterps(g *gazetteer.Frozen, rng *rand.Rand, rows, cols, maxCands int, names []string) []Interpretation {
	var interps []Interpretation
	for r := 1; r <= rows; r++ {
		for c := 1; c <= cols; c++ {
			if rng.Intn(10) == 0 {
				continue // hole in the table
			}
			var cands []gazetteer.LocID
			switch rng.Intn(4) {
			case 0: // raw random ids
				seen := map[gazetteer.LocID]bool{}
				for k, n := 0, rng.Intn(maxCands+1); k < n; k++ {
					id := gazetteer.LocID(1 + rng.Intn(g.Len()))
					if !seen[id] {
						seen[id] = true
						cands = append(cands, id)
					}
				}
			case 1: // empty candidate set (geocoder miss)
			default: // a real ambiguous name's candidates
				cands = g.LookupAny(names[rng.Intn(len(names))])
				if len(cands) > maxCands {
					cands = cands[:maxCands]
				}
			}
			interps = append(interps, Interpretation{Cell: CellRef{Row: r, Col: c}, Candidates: cands})
		}
	}
	return interps
}

// gazNames collects the distinct names of a synthetic gazetteer.
func gazNames(g *gazetteer.Frozen) []string {
	seen := map[string]bool{}
	var names []string
	for i := 1; i <= g.Len(); i++ {
		name := g.Name(gazetteer.LocID(i))
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return names
}

// TestSparseMatchesReferenceRandom drives both implementations over
// randomized tables of varying shape, at two gazetteer scales.
func TestSparseMatchesReferenceRandom(t *testing.T) {
	for _, scale := range []int{1, 3} {
		g := gazetteer.SyntheticScale(17, scale).Freeze()
		names := gazNames(g)
		rng := rand.New(rand.NewSource(int64(scale) * 101))
		for trial := 0; trial < 25; trial++ {
			rows, cols := 1+rng.Intn(10), 1+rng.Intn(5)
			interps := randomInterps(g, rng, rows, cols, 6, names)
			checkEquivalence(t, interps, g)
		}
	}
}

// fuzzInterps derives an interpretation grid from a fuzz byte stream: the
// bytes pick cell positions and candidate ids inside g's id space, and
// duplicates within a cell are dropped so the input is canonical for every
// implementation. Shared by the fuzz targets, so their corpora stress the same
// shapes.
func fuzzInterps(data []byte, g *gazetteer.Frozen) []Interpretation {
	var interps []Interpretation
	seen := map[CellRef]map[gazetteer.LocID]bool{}
	i := 0
	for i+3 <= len(data) && len(interps) < 40 {
		cell := CellRef{Row: 1 + int(data[i])%12, Col: 1 + int(data[i+1])%6}
		n := int(data[i+2]) % 8
		i += 3
		if seen[cell] == nil {
			seen[cell] = map[gazetteer.LocID]bool{}
		}
		var cands []gazetteer.LocID
		for k := 0; k < n && i < len(data); k++ {
			id := gazetteer.LocID(1 + (int(data[i])*7+k*31)%g.Len())
			i++
			if !seen[cell][id] {
				seen[cell][id] = true
				cands = append(cands, id)
			}
		}
		interps = append(interps, Interpretation{Cell: cell, Candidates: cands})
		if i < len(data) && data[i] == 255 {
			i++
		}
	}
	return interps
}

// resolveSeeds are FuzzResolveEquivalence's seed streams, which
// TestInListsAscendSymmetric reads too.
var resolveSeeds = [][]byte{
	{1, 1, 2, 10, 20, 30, 255, 2, 2, 1, 10, 11},
	{0, 0, 0},
	{5, 1, 3, 100, 101, 102, 255, 5, 2, 3, 100, 110, 120, 255, 6, 1, 1, 100},
}

// FuzzResolveEquivalence feeds byte-stream-derived interpretation grids to
// both implementations (see fuzzInterps for the derivation).
func FuzzResolveEquivalence(f *testing.F) {
	for _, seed := range resolveSeeds {
		f.Add(seed)
	}
	g := gazetteer.Synthetic(23).Freeze()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEquivalence(t, fuzzInterps(data, g), g)
	})
}

// ---------------------------------------------------------------------------
// Benchmarks: the sparse rewrite vs the all-pairs reference
// ---------------------------------------------------------------------------

func benchWorkload() ([]Interpretation, *gazetteer.Frozen) {
	f := gazetteer.SyntheticScale(42, 4).Freeze()
	rng := rand.New(rand.NewSource(9))
	return randomInterps(f, rng, 30, 4, 8, gazNames(f)), f
}

func BenchmarkBuildGraphSparse(b *testing.B) {
	interps, g := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGraph(interps, g)
	}
}

func BenchmarkBuildGraphReference(b *testing.B) {
	interps, g := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refBuildGraph(interps, g)
	}
}

func BenchmarkResolve(b *testing.B) {
	interps, g := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResolveScoresOpt(interps, g, Options{})
	}
}
