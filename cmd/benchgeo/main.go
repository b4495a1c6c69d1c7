// Command benchgeo measures the geographic half of the system — voting-graph
// construction and score propagation over the gazetteer (§5.2.2, Figure 7) —
// and records the numbers in a JSON trajectory file (BENCH_geo.json). It is
// the geo counterpart of cmd/benchsearch and bench/'s annotate workloads:
// they exercise small per-table candidate sets, so a regression (or a
// win) in graph construction at production gazetteer sizes is invisible to
// them.
//
// Each invocation appends one labelled run sweeping gazetteer scales (the
// synthetic gazetteer grown to 100k+ locations) at a fixed table geometry.
// Per operating point it reports graph-construction and end-to-end
// resolution throughput in cells/s plus the graph's node and edge counts.
// The speedup of the latest run over the first is computed at each run's
// largest-gazetteer point — the canonical 50×4 table with 8 candidates per
// cell when run with the defaults.
//
// Usage:
//
//	benchgeo -label "PR5 sparse graph" [-out BENCH_geo.json]
//	         [-seed 42] [-scales 1,8,91] [-rows 50] [-cols 4] [-cands 8]
//	         [-repeat 3] [-workload figure7|address] [-workers 0]
//
// -workload address switches to contextful "Street, City" geocodes whose
// voting graph decomposes into many independent components — the huge-table
// shape the component-parallel resolver targets (use with -rows 5000+).
// Every point also records components found, the largest component and peak
// pooled-scratch bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
)

// point is one measured operating point of the sweep. The decomposition
// fields (workload, engine, workers, components, largest_component,
// peak_scratch_bytes) date from the component-parallel resolver and are
// absent from older figure7 points. Engine is always "components" now; the
// trajectory's "single" points were recorded by the whole-table engine the
// component resolver replaced.
type point struct {
	GazLocations       int     `json:"gaz_locations"`
	Rows               int     `json:"rows"`
	Cols               int     `json:"cols"`
	CandsPerCell       int     `json:"cands_per_cell"`
	Nodes              int     `json:"nodes"`
	Edges              int     `json:"edges"`
	BuildCellsPerSec   float64 `json:"build_cells_per_sec"`
	ResolveCellsPerSec float64 `json:"resolve_cells_per_sec"`
	Workload           string  `json:"workload,omitempty"`
	Engine             string  `json:"engine,omitempty"`
	Workers            int     `json:"workers,omitempty"`
	Components         int     `json:"components,omitempty"`
	LargestComponent   int     `json:"largest_component,omitempty"`
	PeakScratchBytes   int64   `json:"peak_scratch_bytes,omitempty"`
}

// run is one labelled benchmark invocation.
type run struct {
	Label      string  `json:"label"`
	RecordedAt string  `json:"recorded_at"` // RFC 3339; CI checks chronology
	Points     []point `json:"points"`
}

type trajectory struct {
	Description string `json:"description"`
	Runs        []run  `json:"runs"`
	// BuildSpeedup compares the latest run to the first at each run's
	// largest-gazetteer operating point.
	BuildSpeedup float64 `json:"build_cells_per_sec_speedup_latest_vs_first"`
}

// options carries one invocation's parameters; tests inject smaller ones.
type options struct {
	label    string
	out      string
	seed     int64
	scales   []int
	rows     int
	cols     int
	cands    int
	repeat   int
	workload string // "figure7" (ambiguous lookups) or "address" (contextful, decomposes)
	workers  int    // component workers; 0 = min(GOMAXPROCS, 8)
}

func main() {
	var (
		label    = flag.String("label", "", "label for this run (required)")
		out      = flag.String("out", "BENCH_geo.json", "trajectory file to append to")
		seed     = flag.Int64("seed", 42, "gazetteer seed")
		scales   = flag.String("scales", "1,8,91", "comma-separated gazetteer scales (91 ≈ 100k locations)")
		rows     = flag.Int("rows", 50, "table rows")
		cols     = flag.Int("cols", 4, "table columns (1 street column + cols-1 city columns)")
		cands    = flag.Int("cands", 8, "candidate interpretations per cell")
		repeat   = flag.Int("repeat", 3, "repetitions per operating point (best is kept)")
		workload = flag.String("workload", "figure7", "table shape: figure7 (ambiguous lookups, one giant component) | address (contextful geocodes, decomposes into many components)")
		workers  = flag.Int("workers", 0, "component workers (0 = one per CPU, capped at 8)")
	)
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchgeo: -label is required")
		os.Exit(2)
	}
	if *workload != "figure7" && *workload != "address" {
		fmt.Fprintln(os.Stderr, "benchgeo: -workload must be figure7 or address")
		os.Exit(2)
	}
	scaleList, err := parseScales(*scales)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgeo:", err)
		os.Exit(2)
	}
	o := options{label: *label, out: *out, seed: *seed, scales: scaleList,
		rows: *rows, cols: *cols, cands: *cands, repeat: *repeat,
		workload: *workload, workers: *workers}
	if err := benchmark(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgeo:", err)
		os.Exit(1)
	}
}

// benchmark sweeps the operating points and appends the labelled run to the
// trajectory file.
func benchmark(o options, stdout io.Writer) error {
	r := run{Label: o.label, RecordedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, scale := range o.scales {
		// The serving path works against the frozen gazetteer, so that is
		// what the benchmark measures.
		g := gazetteer.SyntheticScale(o.seed, scale).Freeze()
		p, err := measure(g, o)
		if err != nil {
			return err
		}
		p.GazLocations = g.Len()
		r.Points = append(r.Points, p)
		fmt.Fprintf(stdout, "gaz=%d locs: build %.0f cells/s, resolve %.0f cells/s (%d nodes, %d edges)\n",
			p.GazLocations, p.BuildCellsPerSec, p.ResolveCellsPerSec, p.Nodes, p.Edges)
		if p.Components > 0 {
			fmt.Fprintf(stdout, "  %d components (largest %d nodes), peak scratch %d bytes\n",
				p.Components, p.LargestComponent, p.PeakScratchBytes)
		}
	}

	traj := trajectory{
		Description: "voting-graph construction and toponym-resolution throughput over the synthetic gazetteer at increasing scale (seed 42; 50x4 table, 8 candidates/cell at the defaults); runs append chronologically",
	}
	if data, err := os.ReadFile(o.out); err == nil {
		if err := json.Unmarshal(data, &traj); err != nil {
			return fmt.Errorf("%s exists but is not a trajectory file: %w", o.out, err)
		}
	}
	traj.Runs = append(traj.Runs, r)
	if first, latest := canonicalPoint(traj.Runs[0]), canonicalPoint(traj.Runs[len(traj.Runs)-1]); first > 0 && latest > 0 {
		traj.BuildSpeedup = latest / first
	}

	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d points (graph build speedup vs first run at the largest gazetteer: %.2fx)\n",
		o.label, len(r.Points), traj.BuildSpeedup)
	return nil
}

// measure times graph construction and full resolution for one gazetteer.
func measure(g *gazetteer.Frozen, o options) (point, error) {
	rng := rand.New(rand.NewSource(o.seed + int64(o.rows)<<16))
	var interps []disambig.Interpretation
	var err error
	if o.workload == "address" {
		interps, err = buildAddressInterps(g, rng, o.rows, o.cols)
	} else {
		interps, err = buildInterps(g, rng, o.rows, o.cols, o.cands)
	}
	if err != nil {
		return point{}, err
	}
	cells := float64(o.rows * o.cols)
	p := point{Rows: o.rows, Cols: o.cols, CandsPerCell: o.cands,
		Workload: o.workload, Engine: "components", Workers: o.workers}

	var bestBuild, bestResolve time.Duration
	for rep := 0; rep < o.repeat; rep++ {
		start := time.Now()
		gr := disambig.BuildGraph(interps, g)
		d := time.Since(start)
		if rep == 0 || d < bestBuild {
			bestBuild = d
		}
		p.Nodes, p.Edges = gr.NodeCount(), gr.EdgeCount()

		start = time.Now()
		choice, _, st := disambig.ResolveScoresOpt(interps, g, disambig.Options{Workers: o.workers})
		d = time.Since(start)
		p.Components, p.LargestComponent = st.Components, st.LargestComponent
		p.PeakScratchBytes = st.PeakScratchBytes
		if rep == 0 || d < bestResolve {
			bestResolve = d
		}
		if len(choice) == 0 {
			return point{}, fmt.Errorf("resolution returned no choices")
		}
	}
	p.BuildCellsPerSec = cells / bestBuild.Seconds()
	p.ResolveCellsPerSec = cells / bestResolve.Seconds()
	return p, nil
}

// buildAddressInterps builds the decomposable huge-table workload: every
// row's cells are full "Street, City" addresses geocoded with their city
// context, so candidate sets only couple rows that share a city name and
// the voting graph splits into many independent components — the shape the
// component-parallel resolver exists for. Candidate set sizes come from the
// geocoder itself (the -cands knob does not apply).
func buildAddressInterps(g *gazetteer.Frozen, rng *rand.Rand, rows, cols int) ([]disambig.Interpretation, error) {
	cities := g.Cities()
	if len(cities) == 0 {
		return nil, fmt.Errorf("gazetteer has no cities")
	}
	var interps []disambig.Interpretation
	for i := 1; i <= rows; i++ {
		var home gazetteer.LocID
		var streets []gazetteer.LocID
		for len(streets) == 0 {
			home = cities[rng.Intn(len(cities))]
			streets = g.StreetsIn(home)
		}
		for j := 1; j <= cols; j++ {
			street := streets[rng.Intn(len(streets))]
			interps = append(interps, disambig.Interpretation{
				Cell:       disambig.CellRef{Row: i, Col: j},
				Candidates: g.Geocode(g.Name(street) + ", " + g.Name(home)),
			})
		}
	}
	return interps, nil
}

// buildInterps builds the synthetic interpretation grid the paper's Figure 7
// scales up to: every row has a home city; its first column is an ambiguous
// street address (same-named streets across cities, the home instance among
// them) and the remaining columns are ambiguous city references, so correct
// interpretations cohere along rows while wrong ones scatter.
func buildInterps(g *gazetteer.Frozen, rng *rand.Rand, rows, cols, cands int) ([]disambig.Interpretation, error) {
	cities := g.Cities()
	if len(cities) == 0 {
		return nil, fmt.Errorf("gazetteer has no cities")
	}
	var interps []disambig.Interpretation
	for i := 1; i <= rows; i++ {
		var home gazetteer.LocID
		var streets []gazetteer.LocID
		for len(streets) == 0 {
			home = cities[rng.Intn(len(cities))]
			streets = g.StreetsIn(home)
		}
		street := streets[rng.Intn(len(streets))]
		interps = append(interps, disambig.Interpretation{
			Cell:       disambig.CellRef{Row: i, Col: 1},
			Candidates: sample(g.Lookup(g.Name(street), gazetteer.Street), street, cands, rng),
		})
		for j := 2; j <= cols; j++ {
			interps = append(interps, disambig.Interpretation{
				Cell:       disambig.CellRef{Row: i, Col: j},
				Candidates: sample(g.Lookup(g.Name(home), gazetteer.City), home, cands, rng),
			})
		}
	}
	return interps, nil
}

// sample returns up to n distinct candidates drawn from all, always
// including must, sorted ascending (the order a geocoder returns).
func sample(all []gazetteer.LocID, must gazetteer.LocID, n int, rng *rand.Rand) []gazetteer.LocID {
	if len(all) <= n {
		return append([]gazetteer.LocID(nil), all...)
	}
	out := []gazetteer.LocID{must}
	for _, i := range rng.Perm(len(all)) {
		if len(out) == n {
			break
		}
		if all[i] != must {
			out = append(out, all[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// canonicalPoint returns the run's graph-construction throughput at its
// largest-gazetteer operating point, or 0 for an empty run.
func canonicalPoint(r run) float64 {
	best, bestGaz := 0.0, -1
	for _, p := range r.Points {
		if p.GazLocations > bestGaz {
			best, bestGaz = p.BuildCellsPerSec, p.GazLocations
		}
	}
	return best
}

func parseScales(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scales entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
