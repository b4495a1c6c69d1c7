package disambig

// The resolver on the request path's terms: its fan-out is the request's
// pool, so the cases the pool runs inline start no goroutine, and the
// request's context reaches every component and every iteration.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/leakcheck"
)

// TestResolveInline: input without a component, a single component, one
// worker over many components, and one worker on a component whose vote
// summation would fan out resolve on the calling goroutine alone. The pool
// polls the context before every live component and runComp before every
// iteration, so the goroutines that polled are the goroutines that worked.
func TestResolveInline(t *testing.T) {
	leakcheck.Goroutines(t)
	g := gazetteer.SyntheticScale(42, 4).Freeze()
	many := addressInterps(g, rand.New(rand.NewSource(3)), 40, 3)
	single := []Interpretation{
		{Cell: CellRef{Row: 1, Col: 1}, Candidates: g.Lookup("Paris", gazetteer.City)},
		{Cell: CellRef{Row: 1, Col: 2}, Candidates: g.Lookup("Paris", gazetteer.City)},
	}
	// One column of the same homonyms: every row votes for every other, so
	// the column is one component of live nodes past the fan-out threshold.
	var wide []Interpretation
	for nodes := 0; nodes < propagationParallelThreshold; {
		cands := g.Lookup("Springfield", gazetteer.City)
		wide = append(wide, Interpretation{Cell: CellRef{Row: len(wide) + 1, Col: 1}, Candidates: cands})
		nodes += len(cands)
	}
	for _, tc := range []struct {
		name       string
		interps    []Interpretation
		opt        Options
		components func(int) bool
	}{
		{"no interpretation", nil, Options{Workers: 8}, func(n int) bool { return n == 0 }},
		{"no candidate", []Interpretation{{Cell: CellRef{Row: 1, Col: 1}}}, Options{Workers: 8}, func(n int) bool { return n == 0 }},
		{"single component", single, Options{Workers: 8}, func(n int) bool { return n == 1 }},
		{"one worker, many components", many, Options{Workers: 1}, func(n int) bool { return n > 8 }},
		{"one worker, one component past the threshold", wide, Options{Workers: 1}, func(n int) bool { return n == 1 }},
	} {
		d := decompose(tc.interps, g)
		live := 0
		for _, comp := range d.comps {
			if !d.ns.dead(comp) {
				live++
			}
		}
		ctx := leakcheck.NewPollContext(0)
		before := runtime.NumGoroutine()
		got, st, err := ResolvePositional(ctx, tc.interps, g, tc.opt)
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines after the resolve, %d before", tc.name, after, before)
		}
		if err != nil || len(got) != len(tc.interps) || !tc.components(st.Components) {
			t.Fatalf("%s: %d results for %d interpretations, %d components, error %v", tc.name, len(got), len(tc.interps), st.Components, err)
		}
		if n, caller := ctx.Goroutines(); n != 1 || !caller {
			t.Errorf("%s: %d goroutines polled the context (the caller among them: %v), want the caller alone", tc.name, n, caller)
		}
		if ctx.Polls() < 2*live {
			t.Errorf("%s: %d polls for %d live components, want one per live component and one per iteration at least", tc.name, ctx.Polls(), live)
		}
	}
}

// TestResolveExpiredContext expires the context at its N-th poll, for N
// across the whole resolve: every phase, between components and between
// iterations. Whatever N, the resolver returns either the complete result or
// the context's error and nothing else — never a table with some components
// unscored — and leaves no goroutine behind.
func TestResolveExpiredContext(t *testing.T) {
	leakcheck.Goroutines(t)
	g := gazetteer.SyntheticScale(42, 4).Freeze()
	interps := addressInterps(g, rand.New(rand.NewSource(9)), 25, 3)
	wantChoice, wantDetail, wantStats := ResolveScoresOpt(interps, g, Options{Workers: 1})
	if wantStats.Components < 4 {
		t.Fatalf("%d components; the test needs a decomposing table", wantStats.Components)
	}
	for _, workers := range []int{1, 4} {
		live := leakcheck.NewPollContext(0)
		if _, _, err := ResolvePositional(live, interps, g, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		total := live.Polls()
		expired := 0
		for n := 1; n <= total+2; n++ {
			ctx := leakcheck.NewPollContext(n)
			got, st, err := ResolvePositional(ctx, interps, g, Options{Workers: workers})
			if err != nil {
				expired++
				if !errors.Is(err, context.DeadlineExceeded) || got != nil || st != (Stats{}) {
					t.Fatalf("workers=%d, expiry at poll %d: %d results, stats %+v, error %v; want nothing but the context's error", workers, n, len(got), st, err)
				}
				continue
			}
			checkPositional(t, interps, got, wantChoice, wantDetail)
		}
		// One worker polls the same sequence every time, so every expiry
		// inside it is hit; more workers poll a few times more or fewer.
		if workers == 1 && expired != total {
			t.Errorf("workers=1: %d of %d expiries failed the resolve, want every one inside its %d polls", expired, total+2, total)
		}
		if expired < total/2 {
			t.Errorf("workers=%d: only %d of %d expiries failed the resolve", workers, expired, total+2)
		}
	}

	// runComp itself: a done context stops it before the next iteration, its
	// saved state where the last finished iteration left it.
	d := decompose(interps, g)
	n := len(d.ns.locs)
	global, localOf := make([]float64, n), make([]int32, n)
	var sc compScratch
	for _, comp := range d.comps {
		var whole, cut compRun
		d.runComp(context.Background(), comp, &whole, &sc, localOf, global, false, false, maxIter)
		if whole.frontier < 3 {
			continue
		}
		d.runComp(leakcheck.NewPollContext(3), comp, &cut, &sc, localOf, global, false, false, maxIter)
		if cut.frontier != 2 {
			t.Errorf("runComp under a context expiring at its third poll ran %d iterations, want 2", cut.frontier)
		}
		return
	}
	t.Fatal("no component runs three iterations")
}
