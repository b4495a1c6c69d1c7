package disambig

// Ambiguity edge cases: empty candidate sets, single-candidate
// short-circuits, tie-breaking determinism and input-order invariance.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gazetteer"
)

func TestResolveNoInterpretations(t *testing.T) {
	g := gazetteer.Synthetic(1).Freeze()
	if choice, _, _ := ResolveScoresOpt(nil, g, Options{}); len(choice) != 0 {
		t.Errorf("ResolveScoresOpt(nil) = %v, want empty", choice)
	}
	if choice, _, _ := ResolveScoresOpt([]Interpretation{}, g, Options{}); len(choice) != 0 {
		t.Errorf("ResolveScoresOpt([]) = %v, want empty", choice)
	}
}

// TestEmptyCandidateSetResolvesToNoLocation: a geocoder can return zero
// candidates for a cell (unknown address). Such cells contribute no nodes
// and do not disturb their neighbours' resolution, but they are present in
// the result as explicit NoLocation entries — callers can distinguish "the
// geocoder could not resolve this cell" from "this cell was never submitted".
func TestEmptyCandidateSetResolvesToNoLocation(t *testing.T) {
	g := gazetteer.Synthetic(2).Freeze()
	balt := g.Lookup("Baltimore", gazetteer.City)
	if len(balt) != 1 {
		t.Fatalf("Baltimore should be unambiguous, got %d", len(balt))
	}
	interps := []Interpretation{
		{Cell: CellRef{1, 1}, Candidates: nil},
		{Cell: CellRef{1, 2}, Candidates: balt},
		{Cell: CellRef{2, 1}, Candidates: []gazetteer.LocID{}},
	}
	choice, detail, _ := ResolveScoresOpt(interps, g, Options{})
	if len(choice) != 3 {
		t.Fatalf("resolved %d cells, want all 3 submitted cells: %v", len(choice), choice)
	}
	if choice[CellRef{1, 2}] != balt[0] {
		t.Errorf("neighbour of empty cells resolved to %v, want %v", choice[CellRef{1, 2}], balt[0])
	}
	for _, empty := range []CellRef{{1, 1}, {2, 1}} {
		loc, ok := choice[empty]
		if !ok || loc != gazetteer.NoLocation {
			t.Errorf("cell %v = (%v, present=%v), want an explicit NoLocation entry", empty, loc, ok)
		}
		if len(detail[empty]) != 0 {
			t.Errorf("cell %v has scores %v, want none", empty, detail[empty])
		}
	}
	// A cell that is unresolvable in one interpretation but has candidates
	// in another is resolved normally.
	merged := append(interps, Interpretation{Cell: CellRef{1, 1}, Candidates: balt})
	mergedChoice, _, _ := ResolveScoresOpt(merged, g, Options{})
	if got := mergedChoice[CellRef{1, 1}]; got != balt[0] {
		t.Errorf("cell with a later non-empty interpretation resolved to %v, want %v", got, balt[0])
	}
}

// TestSingleCandidateShortCircuit: an unambiguous cell keeps its only
// candidate no matter how its neighbours vote — even when the neighbour's
// candidates share no container with it.
func TestSingleCandidateShortCircuit(t *testing.T) {
	g := gazetteer.Synthetic(3).Freeze()
	balt := g.Lookup("Baltimore", gazetteer.City)
	parises := g.Lookup("Paris", gazetteer.City)
	if len(balt) != 1 || len(parises) < 2 {
		t.Fatalf("need unambiguous Baltimore (%d) and ambiguous Paris (%d)", len(balt), len(parises))
	}
	interps := []Interpretation{
		{Cell: CellRef{1, 1}, Candidates: balt},
		{Cell: CellRef{1, 2}, Candidates: parises},
	}
	choice, detail, _ := ResolveScoresOpt(interps, g, Options{})
	if choice[CellRef{1, 1}] != balt[0] {
		t.Errorf("single candidate not selected: %v", choice[CellRef{1, 1}])
	}
	if s := detail[CellRef{1, 1}][balt[0]]; s != 1 {
		t.Errorf("single candidate score = %v, want 1 (full-weight vote)", s)
	}
}

// TestTieBreakPicksSmallestLocID: an isolated ambiguous cell keeps its
// uniform prior, so every candidate ties and the smallest LocID must win
// (the paper chooses randomly; we are deterministic).
func TestTieBreakPicksSmallestLocID(t *testing.T) {
	g := gazetteer.Synthetic(4).Freeze()
	parises := g.Lookup("Paris", gazetteer.City)
	if len(parises) < 2 {
		t.Fatal("need ambiguous Paris")
	}
	min := parises[0]
	for _, c := range parises[1:] {
		if c < min {
			min = c
		}
	}
	interps := []Interpretation{{Cell: CellRef{3, 3}, Candidates: parises}}
	choice, detail, _ := ResolveScoresOpt(interps, g, Options{})
	if choice[CellRef{3, 3}] != min {
		t.Errorf("tie resolved to %v, want smallest LocID %v (scores %v)", choice[CellRef{3, 3}], min, detail[CellRef{3, 3}])
	}
	// The tie really is a tie: all candidates kept the uniform prior.
	for loc, s := range detail[CellRef{3, 3}] {
		if want := 1.0 / float64(len(parises)); s != want {
			t.Errorf("candidate %v score %v, want uniform %v", loc, s, want)
		}
	}
}

// TestTieBreakInvariantUnderCandidateOrder: permuting a cell's candidate
// list (and the interpretation list itself) never changes the resolution.
func TestTieBreakInvariantUnderCandidateOrder(t *testing.T) {
	g, interps, _ := figure7(t)
	want, _, _ := ResolveScoresOpt(interps, g, Options{})
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		shuffled := make([]Interpretation, len(interps))
		for i, it := range interps {
			cands := append([]gazetteer.LocID(nil), it.Candidates...)
			rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
			shuffled[i] = Interpretation{Cell: it.Cell, Candidates: cands}
		}
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		if got, _, _ := ResolveScoresOpt(shuffled, g, Options{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: resolution depends on input order:\n got: %v\nwant: %v", trial, got, want)
		}
	}
}

// TestDuplicateCandidatesDeduplicated: a geocoder repeating a candidate must
// not change the graph — duplicates would split the cell's uniform prior and
// vote twice, so graph construction drops them. The resolution of a
// duplicated input is identical to the deduplicated one's.
func TestDuplicateCandidatesDeduplicated(t *testing.T) {
	g := gazetteer.Synthetic(5).Freeze()
	parises := g.Lookup("Paris", gazetteer.City)
	balt := g.Lookup("Baltimore", gazetteer.City)
	if len(parises) < 2 || len(balt) != 1 {
		t.Fatalf("need ambiguous Paris (%d) and unambiguous Baltimore (%d)", len(parises), len(balt))
	}
	dup := append(append([]gazetteer.LocID(nil), parises...), parises...)
	clean := []Interpretation{
		{Cell: CellRef{1, 1}, Candidates: parises},
		{Cell: CellRef{1, 2}, Candidates: balt},
	}
	dirty := []Interpretation{
		{Cell: CellRef{1, 1}, Candidates: dup},
		{Cell: CellRef{1, 2}, Candidates: balt},
	}
	if got, want := len(BuildGraph(dirty, g).locs), len(BuildGraph(clean, g).locs); got != want {
		t.Fatalf("duplicated candidates created %d nodes, want %d", got, want)
	}
	wantChoice, wantDetail, _ := ResolveScoresOpt(clean, g, Options{})
	gotChoice, gotDetail, _ := ResolveScoresOpt(dirty, g, Options{})
	if !reflect.DeepEqual(gotChoice, wantChoice) {
		t.Errorf("duplicated input resolves differently:\n got %v\nwant %v", gotChoice, wantChoice)
	}
	if !reflect.DeepEqual(gotDetail, wantDetail) {
		t.Errorf("duplicated input scores differently:\n got %v\nwant %v", gotDetail, wantDetail)
	}
	// NoLocation candidates are invalid input and are ignored.
	noisy := []Interpretation{{Cell: CellRef{1, 1}, Candidates: append([]gazetteer.LocID{gazetteer.NoLocation}, parises...)}}
	if got, want := len(BuildGraph(noisy, g).locs), len(parises); got != want {
		t.Errorf("NoLocation candidate created a node: %d nodes, want %d", got, want)
	}
}
