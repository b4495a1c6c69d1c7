package disambig

import (
	"testing"
	"testing/quick"

	"repro/internal/gazetteer"
)

// figure7 reconstructs the exact scenario of Figure 7 in the paper: column 1
// holds partial street addresses, column 2 holds city references; correct
// interpretations share containers along rows.
func figure7(t *testing.T) (*gazetteer.Frozen, []Interpretation, map[CellRef]string) {
	t.Helper()
	g := gazetteer.Synthetic(1).Freeze()

	find := func(street, city string) gazetteer.LocID {
		for _, s := range g.Lookup(street, gazetteer.Street) {
			if g.Name(g.CityOf(s)) == city {
				return s
			}
		}
		t.Fatalf("street %q in %q not found", street, city)
		return gazetteer.NoLocation
	}
	findCity := func(city, state string) gazetteer.LocID {
		for _, c := range g.Lookup(city, gazetteer.City) {
			if g.Name(g.Parent(c)) == state {
				return c
			}
		}
		t.Fatalf("city %q, %q not found", city, state)
		return gazetteer.NoLocation
	}

	interps := []Interpretation{
		{Cell: CellRef{12, 1}, Candidates: []gazetteer.LocID{
			find("Pennsylvania Avenue", "Baltimore"),
			find("Pennsylvania Avenue", "Washington"),
		}},
		{Cell: CellRef{13, 1}, Candidates: []gazetteer.LocID{
			find("Wofford Lane", "College Park"),
			find("Wofford Lane", "Lockhart"),
			find("Wofford Lane", "Conway"),
		}},
		{Cell: CellRef{20, 1}, Candidates: []gazetteer.LocID{
			find("Clarksville Street", "Paris"),
			find("Clarksville Street", "Bogata"),
			find("Clarksville Street", "Trenton"),
		}},
		{Cell: CellRef{12, 2}, Candidates: []gazetteer.LocID{
			findCity("Washington", "D.C."),
			findCity("Washington", "GA"),
		}},
		{Cell: CellRef{13, 2}, Candidates: []gazetteer.LocID{
			findCity("College Park", "MD"),
			findCity("College Park", "GA"),
		}},
		{Cell: CellRef{20, 2}, Candidates: []gazetteer.LocID{
			findCity("Paris", "TX"),
			findCity("Paris", "Île-de-France"),
			findCity("Paris", "TN"),
		}},
	}
	want := map[CellRef]string{
		{12, 1}: "Washington",
		{13, 1}: "College Park",
		{20, 1}: "Paris",
		{12, 2}: "Washington",
		{13, 2}: "College Park",
		{20, 2}: "Paris",
	}
	return g, interps, want
}

func TestFigure7Resolution(t *testing.T) {
	g, interps, want := figure7(t)
	choice, _, _ := ResolveScoresOpt(interps, g, Options{})
	if len(choice) != len(interps) {
		t.Fatalf("resolved %d cells, want %d", len(choice), len(interps))
	}
	for cell, wantCity := range want {
		loc := choice[cell]
		gotCity := g.Name(g.CityOf(loc))
		if gotCity != wantCity {
			t.Errorf("cell %v resolved to city %q, want %q", cell, gotCity, wantCity)
		}
	}
	// The street picks in column 1 must be the streets *in* the chosen
	// cities, not merely same-named streets elsewhere.
	if g.Kind(choice[CellRef{12, 1}]) != gazetteer.Street {
		t.Errorf("cell (12,1) should resolve to a street")
	}
	// Row 12's correct state: D.C., not GA.
	wash := choice[CellRef{12, 2}]
	if g.Name(g.Parent(wash)) != "D.C." {
		t.Errorf("Washington resolved under state %q, want D.C.", g.Name(g.Parent(wash)))
	}
	// Row 20: Paris, TX (voted by Clarksville Street), not France.
	paris := choice[CellRef{20, 2}]
	if g.Name(g.Parent(paris)) != "TX" {
		t.Errorf("Paris resolved under %q, want TX", g.Name(g.Parent(paris)))
	}
}

func TestGraphStructure(t *testing.T) {
	g, interps, _ := figure7(t)
	gr := BuildGraph(interps, g)
	if len(gr.locs) != 15 {
		t.Errorf("node count = %d, want 15 (sum of candidate set sizes)", len(gr.locs))
	}
	if len(gr.in) == 0 {
		t.Error("graph has no edges; voting cannot happen")
	}
}

// TestInListsAscendSymmetric states what the sort-free build rests on: filling
// the in-lists in voter order leaves each strictly ascending — the reference
// summation order — with no voter from the target's own cell, the relation is
// symmetric (so a node's out-degree sizes its in-list), and the edges are the
// all-pairs reference's, list for list.
func TestInListsAscendSymmetric(t *testing.T) {
	g7, figure, _ := figure7(t)
	fuzzGaz := gazetteer.Synthetic(23).Freeze()
	type input struct {
		g       *gazetteer.Frozen
		interps []Interpretation
	}
	inputs := []input{{g7, figure}}
	for _, seed := range resolveSeeds {
		inputs = append(inputs, input{fuzzGaz, fuzzInterps(seed, fuzzGaz)})
	}
	edges := 0
	for k, in := range inputs {
		gr, ref := BuildGraph(in.interps, in.g), refBuildGraph(in.interps, in.g)
		if len(gr.locs) != len(ref.nodes) {
			t.Fatalf("input %d: %d nodes, reference %d", k, len(gr.locs), len(ref.nodes))
		}
		votes := map[[2]int32]bool{}
		for v := 0; v < len(gr.locs); v++ {
			list := gr.in[gr.inOff[v]:gr.inOff[v+1]]
			if len(list) != len(ref.nodes[v].in) {
				t.Fatalf("input %d, node %d: voters %v, reference %v", k, v, list, ref.nodes[v].in)
			}
			for i, w := range list {
				if i > 0 && list[i-1] >= w {
					t.Fatalf("input %d, node %d: in-list %v not strictly ascending", k, v, list)
				}
				if gr.nodeCell[w] == gr.nodeCell[v] {
					t.Fatalf("input %d, node %d: voter %d sits in the same cell", k, v, w)
				}
				if int(w) != ref.nodes[v].in[i] {
					t.Fatalf("input %d, node %d: voters %v, reference %v", k, v, list, ref.nodes[v].in)
				}
				votes[[2]int32{w, int32(v)}] = true
			}
		}
		for e := range votes {
			if !votes[[2]int32{e[1], e[0]}] {
				t.Fatalf("input %d: %d votes for %d but not the reverse", k, e[0], e[1])
			}
		}
		edges += len(votes)
	}
	if edges == 0 {
		t.Fatal("no input has an edge")
	}
}

func TestUnambiguousCellKeepsItsOnlyCandidate(t *testing.T) {
	g := gazetteer.Synthetic(2).Freeze()
	balt := g.Lookup("Baltimore", gazetteer.City)
	if len(balt) != 1 {
		t.Fatalf("Baltimore should be unambiguous, got %d", len(balt))
	}
	interps := []Interpretation{{Cell: CellRef{1, 1}, Candidates: balt}}
	choice, _, _ := ResolveScoresOpt(interps, g, Options{})
	if choice[CellRef{1, 1}] != balt[0] {
		t.Errorf("single candidate was not selected")
	}
}

func TestIsolatedAmbiguousCellPicksDeterministically(t *testing.T) {
	g := gazetteer.Synthetic(3).Freeze()
	parises := g.Lookup("Paris", gazetteer.City)
	if len(parises) < 2 {
		t.Fatalf("need ambiguous Paris")
	}
	interps := []Interpretation{{Cell: CellRef{5, 5}, Candidates: parises}}
	c1, _, _ := ResolveScoresOpt(interps, g, Options{})
	c2, _, _ := ResolveScoresOpt(interps, g, Options{})
	if c1[CellRef{5, 5}] != c2[CellRef{5, 5}] {
		t.Errorf("isolated ambiguous cell resolution is nondeterministic")
	}
}

func TestUnambiguousNeighbourDominatesVote(t *testing.T) {
	// A row contains an unambiguous city and an ambiguous street; the
	// street interpretation in that city must win.
	g := gazetteer.Synthetic(4).Freeze()
	var balt gazetteer.LocID
	for _, c := range g.Lookup("Baltimore", gazetteer.City) {
		balt = c
	}
	streets := g.Lookup("Pennsylvania Avenue", gazetteer.Street)
	if len(streets) < 2 {
		t.Fatalf("need ambiguous Pennsylvania Avenue")
	}
	interps := []Interpretation{
		{Cell: CellRef{1, 1}, Candidates: streets},
		{Cell: CellRef{1, 2}, Candidates: []gazetteer.LocID{balt}},
	}
	choice, _, _ := ResolveScoresOpt(interps, g, Options{})
	if g.CityOf(choice[CellRef{1, 1}]) != balt {
		t.Errorf("street resolved to %q, want the Baltimore street",
			g.FullName(choice[CellRef{1, 1}]))
	}
}

func TestNoCrossCellEdgesWithinSameCell(t *testing.T) {
	g := gazetteer.Synthetic(5).Freeze()
	streets := g.Lookup("Main Street", gazetteer.Street)
	if len(streets) < 2 {
		t.Fatal("need ambiguous Main Street")
	}
	// Candidates of the same cell never vote for each other even though
	// some may share a container.
	interps := []Interpretation{{Cell: CellRef{1, 1}, Candidates: streets}}
	gr := BuildGraph(interps, g)
	if len(gr.in) != 0 {
		t.Errorf("edges within a single cell: %d, want 0", len(gr.in))
	}
}

func TestDiagonalCellsDoNotVote(t *testing.T) {
	g := gazetteer.Synthetic(6).Freeze()
	a := g.Lookup("Pennsylvania Avenue", gazetteer.Street)
	b := g.Lookup("Washington", gazetteer.City)
	interps := []Interpretation{
		{Cell: CellRef{1, 1}, Candidates: a},
		{Cell: CellRef{2, 2}, Candidates: b}, // different row AND column
	}
	gr := BuildGraph(interps, g)
	if len(gr.in) != 0 {
		t.Errorf("diagonal cells should not vote: %d edges", len(gr.in))
	}
}

// TestScoresAreDistributions: after resolution every cell's candidate scores
// form a probability distribution.
func TestScoresAreDistributions(t *testing.T) {
	g, interps, _ := figure7(t)
	_, detail, _ := ResolveScoresOpt(interps, g, Options{})
	for cell, m := range detail {
		var sum float64
		for _, s := range m {
			if s < 0 || s > 1+1e-9 {
				t.Errorf("cell %v has out-of-range score %v", cell, s)
			}
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("cell %v scores sum to %v, want 1", cell, sum)
		}
	}
}

// TestResolveTotal: every input cell gets exactly one interpretation, chosen
// from its own candidate set.
func TestResolveTotal(t *testing.T) {
	g := gazetteer.Synthetic(7).Freeze()
	cities := g.Cities()
	f := func(seed uint32) bool {
		// Build a random 3x2 grid of interpretations from real
		// ambiguous names.
		state := seed
		next := func(n int) int {
			state = state*1664525 + 1013904223
			return int(state % uint32(n))
		}
		var interps []Interpretation
		for r := 1; r <= 3; r++ {
			for c := 1; c <= 2; c++ {
				city := cities[next(len(cities))]
				cands := g.Lookup(g.Name(city), gazetteer.City)
				interps = append(interps, Interpretation{
					Cell: CellRef{r, c}, Candidates: cands,
				})
			}
		}
		choice, _, _ := ResolveScoresOpt(interps, g, Options{})
		for _, it := range interps {
			sel, ok := choice[it.Cell]
			if !ok {
				return false
			}
			found := false
			for _, c := range it.Candidates {
				if c == sel {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
