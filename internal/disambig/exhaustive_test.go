package disambig

import (
	"context"
	"math"
	"testing"

	"repro/internal/gazetteer"
)

// TestExhaustiveSmallInterpretations checks the stop coordinator over a
// complete small space instead of a random sample of a large one: every table
// of 1x1, 1x2, 2x1 and 2x2 cells whose every cell carries a candidate multiset
// of size 0, 1 or 2 — a repeated candidate and the invalid NoLocation included
// — drawn from a state, its two cities and a street of the same name in each
// (the gazetteer's sixth location, the country, only contains them). Equal,
// nested, sibling and unrelated containers, unambiguous cells and cells
// without a usable candidate all occur. For each table the decomposed run at 1
// and 3 workers must equal the undecomposed run of the same engine and the
// O(n²) seed reference — choices and float64 bits — and the positional form
// must equal the map form. The reference takes canonical input (no repeats, no
// NoLocation) and omits cells without a candidate, which is the one sanctioned
// difference.
//
// The space holds tables whose stop iteration is not an exact fixed point, so
// a stop iteration off by one changes bits here. What four cells cannot hold
// is two components that each take several iterations and stop at different
// ones — the resume phases — which TestComponentParallelMultiComponent and the
// fuzz corpus reach. Under -short or -race the pool drops the streets.
func TestExhaustiveSmallInterpretations(t *testing.T) {
	b := gazetteer.New()
	country := b.Add("Freedonia", gazetteer.Country, gazetteer.NoLocation)
	state := b.Add("Upper Freedonia", gazetteer.State, country)
	cityA := b.Add("Springfield", gazetteer.City, state)
	cityB := b.Add("Shelbyville", gazetteer.City, state)
	streetA := b.Add("Main Street", gazetteer.Street, cityA)
	streetB := b.Add("Main Street", gazetteer.Street, cityB)
	g := b.Freeze()
	pool := []gazetteer.LocID{gazetteer.NoLocation, state, cityA, cityB, streetA, streetB}
	if testing.Short() || raceEnabled {
		pool = pool[:len(pool)-2]
	}

	// Every multiset of at most two pool members, and its canonical form.
	sets := [][]gazetteer.LocID{nil}
	for i, a := range pool {
		sets = append(sets, []gazetteer.LocID{a})
		for _, c := range pool[i:] {
			sets = append(sets, []gazetteer.LocID{a, c})
		}
	}
	canon := make([][]gazetteer.LocID, len(sets))
	for i, set := range sets {
		for k, loc := range set {
			if loc != gazetteer.NoLocation && (k == 0 || loc != set[0]) {
				canon[i] = append(canon[i], loc)
			}
		}
	}

	tables := 0
	for _, shape := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		var cells []CellRef
		for r := 1; r <= shape[0]; r++ {
			for c := 1; c <= shape[1]; c++ {
				cells = append(cells, CellRef{Row: r, Col: c})
			}
		}
		raw := make([]Interpretation, len(cells))
		clean := make([]Interpretation, len(cells))
		pick := make([]int, len(cells)) // odometer over sets, one digit per cell
		for {
			for i, cell := range cells {
				raw[i] = Interpretation{Cell: cell, Candidates: sets[pick[i]]}
				clean[i] = Interpretation{Cell: cell, Candidates: canon[pick[i]]}
			}
			tables++
			checkSmallTable(t, g, raw, clean)
			k := 0
			for k < len(pick) {
				if pick[k]++; pick[k] < len(sets) {
					break
				}
				pick[k] = 0
				k++
			}
			if k == len(pick) {
				break
			}
		}
	}
	t.Logf("%d tables over %d candidate sets per cell", tables, len(sets))
}

// checkSmallTable resolves one table every way and fails on the first
// difference, bit for bit.
func checkSmallTable(t *testing.T, g *gazetteer.Frozen, raw, clean []Interpretation) {
	choice, detail := resolveUndecomposed(raw, g)
	sameBits := func(what string, gotChoice map[CellRef]gazetteer.LocID, gotDetail map[CellRef]map[gazetteer.LocID]float64, cells int) {
		if len(gotChoice) != cells || len(gotDetail) != cells {
			t.Fatalf("%v: %s resolves %d/%d cells, the undecomposed run %d", raw, what, len(gotChoice), len(gotDetail), cells)
		}
		for cell, m := range gotDetail {
			if gotChoice[cell] != choice[cell] || len(m) != len(detail[cell]) {
				t.Fatalf("%v cell %v: %s chose %v of %v, the undecomposed run %v of %v", raw, cell, what, gotChoice[cell], m, choice[cell], detail[cell])
			}
			for loc, s := range m {
				if want, ok := detail[cell][loc]; !ok || math.Float64bits(s) != math.Float64bits(want) {
					t.Fatalf("%v cell %v loc %v: %s scores %x, the undecomposed run %x", raw, cell, loc, what, math.Float64bits(s), math.Float64bits(want))
				}
			}
		}
	}
	for _, w := range []int{1, 3} {
		c, d, _ := ResolveScoresOpt(raw, g, Options{Workers: w})
		sameBits("the decomposed run", c, d, len(choice))
	}
	refChoice, refDetail := refResolveScores(clean, g)
	resolved := 0
	for _, loc := range choice {
		if loc != gazetteer.NoLocation {
			resolved++
		}
	}
	sameBits("the reference", refChoice, refDetail, resolved)
	got, _, err := ResolvePositional(context.Background(), raw, g, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkPositional(t, raw, got, choice, detail)
}
