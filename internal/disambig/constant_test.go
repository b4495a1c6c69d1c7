package disambig

// Constant cells. A node of a single-candidate cell scores exactly 1.0 at
// every iteration (1/1 as the prior, x/x or the zero-sum 1/1 after each
// normalisation), which licenses resolving a component without a live node
// where it stands and leaving a constant's in-list unbuilt. The fact itself is
// checked on the reference loop; the engine's routes that lean on it are
// checked against the reference bit for bit, and asserted reached.

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

// readCorpus returns the byte streams of a fuzz target's checked-in corpus.
func readCorpus(t *testing.T, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no %s corpus: %v", target, err)
	}
	var out [][]byte
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
		out = append(out, []byte(data))
	}
	return out
}

// corpusInterps derives the interpretation grids of both fuzz targets' seeds
// and checked-in corpora over the fuzz gazetteer.
func corpusInterps(t *testing.T, g *gazetteer.Frozen) [][]Interpretation {
	t.Helper()
	streams := append([][]byte(nil), resolveSeeds...)
	streams = append(streams, readCorpus(t, "FuzzResolveEquivalence")...)
	streams = append(streams, readCorpus(t, "FuzzComponentDecomposition")...)
	out := make([][]Interpretation, len(streams))
	for i, data := range streams {
		out[i] = fuzzInterps(data, g)
	}
	return out
}

// checkConstantsHoldOne steps the reference loop over a canonical input and
// requires every node of a single-candidate cell to hold exactly 1.0 after
// every iteration. It returns how many (node, iteration) pairs it checked and
// how many of them summed to zero before normalising.
func checkConstantsHoldOne(t *testing.T, interps []Interpretation, g *gazetteer.Frozen) (checked, zeroSums int) {
	t.Helper()
	gr := refBuildGraph(interps, g)
	cellNodes := refCellNodes(gr)
	iter := 0
	refPropagate(gr, cellNodes, func(prev, cur []float64) {
		iter++
		for _, idxs := range cellNodes {
			if len(idxs) != 1 {
				continue
			}
			i := idxs[0]
			if bits := math.Float64bits(cur[i]); bits != 0x3FF0000000000000 {
				t.Fatalf("iteration %d: single-candidate node %d (cell %v) holds %x", iter, i, gr.nodes[i].cell, bits)
			}
			var sum float64
			for _, v := range gr.nodes[i].in {
				sum += prev[v]
			}
			checked++
			if sum == 0 {
				zeroSums++
			}
		}
	})
	return checked, zeroSums
}

// TestReferenceConstantsHoldOne runs the fact over both fuzz corpora and over
// decomposing address tables, zero-sum iterations included.
func TestReferenceConstantsHoldOne(t *testing.T) {
	g := gazetteer.Synthetic(23).Freeze()
	inputs := corpusInterps(t, g)
	big := gazetteer.SyntheticScale(42, 4).Freeze()
	rng := rand.New(rand.NewSource(5))
	checked, zeroSums := 0, 0
	for trial := 0; trial < 4+len(inputs); trial++ {
		var c, z int
		if trial < len(inputs) {
			c, z = checkConstantsHoldOne(t, inputs[trial], g)
		} else {
			c, z = checkConstantsHoldOne(t, addressInterps(big, rng, 30, 3), big)
		}
		checked, zeroSums = checked+c, zeroSums+z
	}
	if zeroSums == 0 || zeroSums == checked {
		t.Fatalf("%d constant iterations checked, %d of them zero-sum: want both kinds", checked, zeroSums)
	}
}

// constantRoutes records which of the engine's constant-cell routes an input
// reaches, through the predicates the engine itself uses.
type constantRoutes struct {
	dead           bool // a component without a live node
	constantVoter  bool // a live node with a constant among its voters
	constantVoters bool // a live node whose voters are all constants
	resumed        bool // a live component the coordinator resumes beside a dead one
}

func (c *constantRoutes) all() bool {
	return c.dead && c.constantVoter && c.constantVoters && c.resumed
}

func (c *constantRoutes) observe(interps []Interpretation, g *gazetteer.Frozen) {
	gr := BuildGraph(interps, g)
	for v := int32(0); v < int32(len(gr.locs)); v++ {
		voters := gr.in[gr.inOff[v]:gr.inOff[v+1]]
		if gr.constant(v) || len(voters) == 0 {
			continue
		}
		constants := 0
		for _, w := range voters {
			if gr.constant(w) {
				constants++
			}
		}
		c.constantVoter = c.constantVoter || constants > 0
		c.constantVoters = c.constantVoters || constants == len(voters)
	}

	// Phase 1 by hand: a live component whose first sub-eps iteration comes
	// before the slowest one's, and which has not frozen, is resumed.
	d := decompose(interps, g)
	n := len(d.ns.locs)
	global, localOf := make([]float64, n), make([]int32, n)
	var sc compScratch
	dead, target := false, 0
	var runs []compRun
	for _, comp := range d.comps {
		if d.ns.dead(comp) {
			dead = true
			continue
		}
		var r compRun
		d.runComp(context.Background(), comp, &r, &sc, localOf, global, false, true, maxIter)
		runs = append(runs, r)
		if r.firstConv == 0 {
			target = maxIter
		}
		target = max(target, r.firstConv)
	}
	c.dead = c.dead || dead
	for _, r := range runs {
		c.resumed = c.resumed || (dead && r.fixedAt == 0 && r.frontier < target)
	}
}

// withSingles cuts about half of the cells with several candidates down to
// their first, so a random table mixes live and constant cells.
func withSingles(interps []Interpretation, rng *rand.Rand) []Interpretation {
	for i := range interps {
		if len(interps[i].Candidates) > 1 && rng.Intn(2) == 0 {
			interps[i].Candidates = interps[i].Candidates[:1]
		}
	}
	return interps
}

// TestConstantCellsMatchReference holds the engine to the O(n²) reference,
// scores by bits, at workers {1, 2, 8}, on decomposing address tables, on
// random tables with a forced share of single-candidate cells and on both
// fuzz corpora — and requires the address tables and random tables, and the
// corpora on their own, to reach every constant-cell route.
func TestConstantCellsMatchReference(t *testing.T) {
	var generated, corpus constantRoutes
	big := gazetteer.SyntheticScale(42, 4).Freeze()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		interps := addressInterps(big, rng, 30, 3)
		generated.observe(interps, big)
		checkEquivalence(t, interps, big, differentialWorkers...)
	}
	for _, scale := range []int{1, 3} {
		g := gazetteer.SyntheticScale(31, scale).Freeze()
		names := gazNames(g)
		for trial := 0; trial < 15; trial++ {
			interps := withSingles(randomInterps(g, rng, 1+rng.Intn(10), 1+rng.Intn(5), 6, names), rng)
			generated.observe(interps, g)
			checkEquivalence(t, interps, g, differentialWorkers...)
		}
	}
	g := gazetteer.Synthetic(23).Freeze()
	for _, interps := range corpusInterps(t, g) {
		corpus.observe(interps, g)
		checkEquivalence(t, interps, g, differentialWorkers...)
	}
	if !generated.all() || !corpus.all() {
		t.Fatalf("routes reached: generated tables %+v, fuzz corpora %+v; want every one in both", generated, corpus)
	}
}
