package disambig

// Differential and property tests for the component-parallel resolver: the
// decomposition must be exactly the voting graph's connected-component
// partition (coarsened by per-cell coupling), and the decomposed resolution
// must stay BIT-identical to an undecomposed run of the same engine — the
// whole table as ONE component, where the stop coordinator has nothing to
// reconcile — same choices, same float64 scores, at every worker count.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/gazetteer"
)

// resolveUndecomposed runs the component engine over a single component
// holding every node: one graph, one propagation loop, one stop decision.
func resolveUndecomposed(interps []Interpretation, g *gazetteer.Frozen) (map[CellRef]gazetteer.LocID, map[CellRef]map[gazetteer.LocID]float64) {
	ns := buildNodes(interps, g)
	d := &decomposition{ns: ns, comps: [][]int32{ns.allNodes()}}
	scores, _, _ := d.resolveComponents(context.Background(), Options{Workers: 1})
	return ns.choose(scores)
}

// checkEngines resolves undecomposed and decomposed at several worker counts
// and fails on any divergence, bitwise. Returns the decomposed run's stats
// for callers asserting decomposition shape.
func checkEngines(t *testing.T, interps []Interpretation, g *gazetteer.Frozen, workers []int) Stats {
	t.Helper()
	wantChoice, wantDetail := resolveUndecomposed(interps, g)
	var st Stats
	for _, w := range workers {
		choice, detail, s := ResolveScoresOpt(interps, g, Options{Workers: w})
		st = s
		if len(choice) != len(wantChoice) {
			t.Fatalf("workers=%d: %d choices, undecomposed run has %d", w, len(choice), len(wantChoice))
		}
		for cell, loc := range wantChoice {
			if got := choice[cell]; got != loc {
				t.Fatalf("workers=%d cell %v: chose %v, undecomposed run chose %v", w, cell, got, loc)
			}
		}
		for cell, m := range wantDetail {
			got := detail[cell]
			if len(got) != len(m) {
				t.Fatalf("workers=%d cell %v: score map sizes differ (%d vs %d)", w, cell, len(got), len(m))
			}
			for loc, s := range m {
				if got[loc] != s {
					t.Fatalf("workers=%d cell %v loc %v: score %v, undecomposed run %v (bitwise)", w, cell, loc, got[loc], s)
				}
			}
		}
	}
	return st
}

var differentialWorkers = []int{1, 2, 8}

// TestComponentParallelMatchesSingleGraph drives both runs over
// randomized tables — larger than the O(n²) seed-reference suite can afford
// — across worker counts {1, 2, 8}.
func TestComponentParallelMatchesSingleGraph(t *testing.T) {
	for _, scale := range []int{1, 4} {
		g := gazetteer.SyntheticScale(29, scale).Freeze()
		names := gazNames(g)
		rng := rand.New(rand.NewSource(int64(scale) * 977))
		for trial := 0; trial < 15; trial++ {
			rows, cols := 1+rng.Intn(40), 1+rng.Intn(6)
			interps := randomInterps(g, rng, rows, cols, 8, names)
			checkEngines(t, interps, g, differentialWorkers)
		}
	}
}

// addressInterps builds the decomposable huge-table workload: each row
// holds a home city and addresses of streets inside it, geocoded with the
// city name as context — so candidate sets only couple rows sharing a city
// name and the graph splits into many components (one per distinct city
// name, roughly): the shape of bench/'s geocode_huge tables.
func addressInterps(g *gazetteer.Frozen, rng *rand.Rand, rows, cols int) []Interpretation {
	cities := g.Cities()
	var interps []Interpretation
	for i := 1; i <= rows; i++ {
		var home gazetteer.LocID
		var streets []gazetteer.LocID
		for len(streets) == 0 {
			home = cities[rng.Intn(len(cities))]
			streets = g.StreetsIn(home)
		}
		for j := 1; j <= cols; j++ {
			st := streets[rng.Intn(len(streets))]
			addr := g.Name(st) + ", " + g.Name(home)
			interps = append(interps, Interpretation{
				Cell:       CellRef{Row: i, Col: j},
				Candidates: g.Geocode(addr),
			})
		}
	}
	return interps
}

// TestComponentParallelMultiComponent exercises the differential on a
// workload that genuinely decomposes, asserting a non-trivial component count
// alongside bit-identity.
func TestComponentParallelMultiComponent(t *testing.T) {
	g := gazetteer.SyntheticScale(42, 8).Freeze()
	rng := rand.New(rand.NewSource(7))
	interps := addressInterps(g, rng, 60, 3)
	st := checkEngines(t, interps, g, differentialWorkers)
	if st.Components < 4 {
		t.Fatalf("address workload produced only %d components; want a real decomposition", st.Components)
	}
	if st.LargestComponent >= st.Nodes {
		t.Fatalf("largest component %d spans all %d nodes", st.LargestComponent, st.Nodes)
	}
	if st.PeakScratchBytes == 0 {
		t.Fatalf("peak scratch bytes not recorded")
	}
}

// checkPositional requires the positional results to equal the map form:
// every interpretation carries its cell's choice and the winner's bitwise
// score, (NoLocation, 0) for a cell without candidates.
func checkPositional(t *testing.T, interps []Interpretation, got []Choice, choice map[CellRef]gazetteer.LocID, detail map[CellRef]map[gazetteer.LocID]float64) {
	t.Helper()
	if len(got) != len(interps) {
		t.Fatalf("%d positional results for %d interpretations", len(got), len(interps))
	}
	for i, it := range interps {
		want := Choice{Loc: choice[it.Cell], Score: detail[it.Cell][choice[it.Cell]]}
		if got[i] != want {
			t.Fatalf("interpretation %d (cell %v): positional %+v, map form %+v", i, it.Cell, got[i], want)
		}
	}
}

// TestResolvePositionalMatches checks the positional delivery against the
// map-building resolver: one result per interpretation, same choices, the
// winner's bitwise score, the same stats, at several worker counts.
func TestResolvePositionalMatches(t *testing.T) {
	g := gazetteer.SyntheticScale(42, 4).Freeze()
	rng := rand.New(rand.NewSource(11))
	interps := addressInterps(g, rng, 30, 3)
	// A geocoder-miss cell: an explicit NoLocation.
	interps = append(interps, Interpretation{Cell: CellRef{Row: 500, Col: 1}})
	// A second interpretation of an already-seen cell: the cell's outcome again.
	interps = append(interps, Interpretation{Cell: interps[0].Cell, Candidates: interps[1].Candidates})
	wantChoice, wantDetail, wantStats := ResolveScoresOpt(interps, g, Options{})
	for _, w := range differentialWorkers {
		got, st, err := ResolvePositional(context.Background(), interps, g, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if st.Components != wantStats.Components || st.Nodes != wantStats.Nodes {
			t.Fatalf("workers=%d: positional stats %+v, map-form stats %+v", w, st, wantStats)
		}
		checkPositional(t, interps, got, wantChoice, wantDetail)
	}
}

// TestCandidateFreeInput pins what the general path makes of input without a
// usable candidate — empty inputs, empty candidate sets and all-NoLocation
// candidate sets: every cell an explicit NoLocation with an empty score map,
// zero Stats (no component, so no scratch is checked out), and the positional
// form (NoLocation, 0) at every interpretation.
func TestCandidateFreeInput(t *testing.T) {
	g := gazetteer.Synthetic(5).Freeze()
	cases := [][]Interpretation{
		nil,
		{},
		{{Cell: CellRef{Row: 1, Col: 1}}},
		{{Cell: CellRef{Row: 1, Col: 1}}, {Cell: CellRef{Row: 2, Col: 1}}, {Cell: CellRef{Row: 1, Col: 1}}},
		{{Cell: CellRef{Row: 3, Col: 2}, Candidates: []gazetteer.LocID{gazetteer.NoLocation}}},
		{
			{Cell: CellRef{Row: 1, Col: 1}, Candidates: []gazetteer.LocID{gazetteer.NoLocation, gazetteer.NoLocation}},
			{Cell: CellRef{Row: 2, Col: 2}},
		},
	}
	for i, interps := range cases {
		choice, detail, st := ResolveScoresOpt(interps, g, Options{})
		if st != (Stats{}) {
			t.Fatalf("case %d: stats %+v, want zero", i, st)
		}
		wantChoice, wantDetail := refCells(interps)
		if len(choice) != len(wantChoice) || len(detail) != len(wantDetail) {
			t.Fatalf("case %d: got %d/%d cells, want %d", i, len(choice), len(detail), len(wantChoice))
		}
		for cell := range wantChoice {
			loc, ok := choice[cell]
			if !ok || loc != gazetteer.NoLocation {
				t.Fatalf("case %d cell %v: got (%v, %v), want explicit NoLocation", i, cell, loc, ok)
			}
			if m := detail[cell]; m == nil || len(m) != 0 {
				t.Fatalf("case %d cell %v: detail %v, want empty non-nil map", i, cell, m)
			}
		}
		// The undecomposed reference agrees on the shape.
		refChoice, refDetail := resolveUndecomposed(interps, g)
		if len(refChoice) != len(choice) || len(refDetail) != len(detail) {
			t.Fatalf("case %d: decomposed and undecomposed runs disagree on cell counts", i)
		}

		got, st, err := ResolvePositional(context.Background(), interps, g, Options{})
		if err != nil || st != (Stats{}) {
			t.Fatalf("case %d: positional stats %+v, error %v, want zero and nil", i, st, err)
		}
		checkPositional(t, interps, got, choice, detail)
		for ii, c := range got {
			if c != (Choice{}) {
				t.Fatalf("case %d: positional result %d = %+v, want (NoLocation, 0)", i, ii, c)
			}
		}
	}
}

// refCells derives the expected deduplicated cell set of a degenerate input.
func refCells(interps []Interpretation) (map[CellRef]bool, map[CellRef]bool) {
	cells := map[CellRef]bool{}
	for _, it := range interps {
		cells[it.Cell] = true
	}
	return cells, cells
}

// FuzzComponentDecomposition checks the partition invariants of decompose
// against the materialised graph: every node lands in exactly one
// component, every directed edge stays inside its voter's component, a
// cell's nodes share one component, and the partition is exactly the one a
// union-find over the materialised edges (plus per-cell coupling) produces
// — no over- or under-merging. The derivation is FuzzResolveEquivalence's
// (fuzzInterps).
func FuzzComponentDecomposition(f *testing.F) {
	f.Add([]byte{1, 1, 2, 10, 20, 30, 255, 2, 2, 1, 10, 11})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{5, 1, 3, 100, 101, 102, 255, 5, 2, 3, 100, 110, 120, 255, 6, 1, 1, 100})
	f.Add([]byte{9, 3, 4, 1, 2, 3, 4, 255, 2, 9, 4, 7, 7, 7, 7})
	g := gazetteer.Synthetic(23).Freeze()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecomposition(t, fuzzInterps(data, g), g)
	})
}

// checkDecomposition asserts decompose's partition invariants against the
// whole-table graph, and the runs' bit-identity on the same input.
func checkDecomposition(t *testing.T, interps []Interpretation, g *gazetteer.Frozen) {
	t.Helper()
	d := decompose(interps, g)
	gr := BuildGraph(interps, g)
	n := len(gr.locs)

	// Every node in exactly one component; members ascending.
	compOf := make([]int, n)
	for i := range compOf {
		compOf[i] = -1
	}
	total := 0
	for ci, comp := range d.comps {
		if len(comp) == 0 {
			t.Fatalf("component %d is empty", ci)
		}
		for k, gi := range comp {
			if k > 0 && comp[k-1] >= gi {
				t.Fatalf("component %d members not ascending", ci)
			}
			if compOf[gi] != -1 {
				t.Fatalf("node %d in components %d and %d", gi, compOf[gi], ci)
			}
			compOf[gi] = ci
			total++
		}
	}
	if total != n {
		t.Fatalf("%d nodes assigned, graph has %d", total, n)
	}

	// Component-local edges only.
	for v := 0; v < n; v++ {
		for _, w := range gr.in[gr.inOff[v]:gr.inOff[v+1]] {
			if compOf[v] != compOf[w] {
				t.Fatalf("edge %d->%d crosses components %d and %d", w, v, compOf[w], compOf[v])
			}
		}
	}
	// A cell's nodes share one component (normalisation coupling).
	for ci, idxs := range gr.cellNodes {
		for _, gi := range idxs {
			if compOf[gi] != compOf[idxs[0]] {
				t.Fatalf("cell %v split across components", gr.cells[ci])
			}
		}
	}

	// Exactness: the partition must equal the one derived from the
	// materialised edges plus per-cell coupling — decompose must not merge
	// components no edge or cell connects.
	uf := newUnionFind(n)
	for v := 0; v < n; v++ {
		for _, w := range gr.in[gr.inOff[v]:gr.inOff[v+1]] {
			uf.union(int32(v), w)
		}
	}
	for _, idxs := range gr.cellNodes {
		for k := 1; k < len(idxs); k++ {
			uf.union(idxs[0], idxs[k])
		}
	}
	roots := map[int32]int{}
	for i := 0; i < n; i++ {
		r := uf.find(int32(i))
		if prev, ok := roots[r]; ok {
			if prev != compOf[i] {
				t.Fatalf("node %d: edge-derived set (root %d) spans components %d and %d", i, r, prev, compOf[i])
			}
		} else {
			roots[r] = compOf[i]
		}
	}
	if len(roots) != len(d.comps) {
		t.Fatalf("decompose found %d components, edge-derived partition has %d", len(d.comps), len(roots))
	}

	checkEngines(t, interps, g, []int{1, 3})
	checkScoresFinite(t, d)
}

// checkScoresFinite steps every component one iteration at a time — through
// the resume path the stop coordinator uses, so each state is bitwise a state
// a real resolution passes through — and requires every score finite and
// non-negative after each. That is the invariant under which runComp's
// delta reduction by plain compare equals math.Max (no NaN to propagate, no
// -0 to order).
func checkScoresFinite(t *testing.T, d *decomposition) {
	t.Helper()
	n := len(d.ns.locs)
	global, localOf := make([]float64, n), make([]int32, n)
	var sc compScratch
	for ci, comp := range d.comps {
		var r compRun
		for it := 1; it <= maxIter && r.fixedAt == 0; it++ {
			d.runComp(context.Background(), comp, &r, &sc, localOf, global, it > 1, false, it)
			for _, gi := range comp {
				if s := global[gi]; math.IsNaN(s) || math.IsInf(s, 0) || math.Signbit(s) {
					t.Fatalf("component %d, iteration %d: node %d scores %v", ci, it, gi, s)
				}
			}
		}
	}
}

// TestScoresFinite runs the invariant over the checked-in decomposition
// corpus and over decomposing address tables.
func TestScoresFinite(t *testing.T) {
	g := gazetteer.Synthetic(23).Freeze()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzComponentDecomposition", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no decomposition corpus: %v", err)
	}
	for _, name := range files {
		file, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := bytes.CutPrefix(bytes.TrimSpace(file), []byte("go test fuzz v1\n[]byte("))
		data, err := strconv.Unquote(string(bytes.TrimSuffix(quoted, []byte(")"))))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus file: %v", name, err)
		}
		checkScoresFinite(t, decompose(fuzzInterps([]byte(data), g), g))
	}
	big := gazetteer.SyntheticScale(42, 4).Freeze()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		checkScoresFinite(t, decompose(addressInterps(big, rng, 30, 3), big))
	}
}

// BenchmarkResolveAddress is the geocode_huge table's vote without the
// geocoder: 2 000 × 4 "Street, City" cells over the gazetteer that workload
// serves, most of them single-candidate, split into decomposing the node table
// and resolving its components.
func BenchmarkResolveAddress(b *testing.B) {
	g := gazetteer.SyntheticScale(42^0x6761_7a65, 1).Freeze()
	interps := addressInterps(g, rand.New(rand.NewSource(1)), 2000, 4)
	b.Run("decompose", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decompose(interps, g)
		}
	})
	b.Run("resolve", func(b *testing.B) {
		d := decompose(interps, g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.resolveComponents(context.Background(), Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
