// Command benchannotate measures the end-to-end throughput of the annotation
// pipeline — whole tables through plan/execute/merge against the in-process
// search substrate — and records the numbers in a JSON trajectory file
// (BENCH_annotate.json). It is the layer above cmd/benchsearch: search
// micro-benchmarks cannot see wins (or regressions) in batching, caching or
// the classify/decide stage, so this is the standing corpus-level trajectory.
//
// Each invocation appends one labelled run covering a parallelism sweep in
// two cache regimes: cold (a fresh cross-table verdict cache per repetition,
// so every unique cell query pays a search round-trip) and warm (the cache
// pre-populated by a full corpus pass, so the run measures the cached path).
// The speedup of the latest run over the first is computed at the canonical
// operating point (cold, parallelism 4).
//
// Usage:
//
//	benchannotate -label "PR4 sharded+batched" [-out BENCH_annotate.json]
//	              [-seed 42] [-sweep 1,2,4,8] [-repeat 3]
//	              [-cpuprofile cpu.out]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/annotate"
	"repro/internal/eval"
	"repro/internal/qcache"
)

// point is one measured operating point of the sweep.
type point struct {
	Parallelism  int     `json:"parallelism"`
	TablesPerSec float64 `json:"tables_per_sec"`
	RowsPerSec   float64 `json:"rows_per_sec"`
}

// run is one labelled benchmark invocation.
type run struct {
	Label       string  `json:"label"`
	RecordedAt  string  `json:"recorded_at"` // RFC 3339; CI checks chronology
	Tables      int     `json:"corpus_tables"`
	Rows        int     `json:"corpus_rows"`
	Annotations int     `json:"annotations"` // sanity: must match across runs
	Cold        []point `json:"cold"`
	Warm        []point `json:"warm"`
}

type trajectory struct {
	Description string `json:"description"`
	Runs        []run  `json:"runs"`
	// ColdP4Speedup compares the latest run to the first at the canonical
	// operating point: cold cache, parallelism 4.
	ColdP4Speedup float64 `json:"cold_p4_tables_per_sec_speedup_latest_vs_first"`
}

// options carries one invocation's parameters; tests inject a smaller lab
// configuration than the canonical one.
type options struct {
	label  string
	out    string
	sweep  []int
	repeat int
	lab    eval.LabConfig
}

// canonicalLab is the service's small-scale corpus (repro.New ScaleSmall).
func canonicalLab(seed int64) eval.LabConfig {
	return eval.LabConfig{
		Seed:              seed,
		KBPerType:         60,
		SnippetsPerEntity: 5,
		MaxTrainEntities:  60,
	}
}

func main() {
	var (
		label      = flag.String("label", "", "label for this run (required)")
		out        = flag.String("out", "BENCH_annotate.json", "trajectory file to append to")
		seed       = flag.Int64("seed", 42, "lab seed (matches the canonical service corpus)")
		sweep      = flag.String("sweep", "1,2,4,8", "comma-separated parallelism settings")
		repeat     = flag.Int("repeat", 3, "repetitions per operating point (best is kept)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark to this file")
	)
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchannotate: -label is required")
		os.Exit(2)
	}
	parallelisms, err := parseSweep(*sweep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchannotate:", err)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchannotate:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchannotate:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	o := options{label: *label, out: *out, sweep: parallelisms, repeat: *repeat, lab: canonicalLab(*seed)}
	if err := benchmark(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchannotate:", err)
		os.Exit(1)
	}
}

// benchmark builds the lab, sweeps the operating points and appends the run
// to the trajectory file.
func benchmark(o options, stdout io.Writer) error {
	lab := eval.NewLab(o.lab)
	tables := lab.GFT.Tables
	rows := 0
	for _, t := range tables {
		rows += t.NumRows()
	}

	base := annotate.Config{
		Searcher:     lab.Engine,
		Classifier:   lab.SVM,
		Types:        eval.TypeStrings(),
		Postprocess:  true,
		Disambiguate: true,
		Gazetteer:    lab.Geo,
		CacheSalt:    "svm",
	}

	r := run{
		Label:      o.label,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Tables:     len(tables),
		Rows:       rows,
	}
	ctx := context.Background()

	for _, p := range o.sweep {
		cfg := base
		cfg.Parallelism = p

		// Cold: a fresh cache every repetition, so each rep pays the full
		// search cost. (The cache is still set: the deduped+cached execute
		// path is the production hot path being measured.)
		best := 0.0
		annotations := 0
		for rep := 0; rep < o.repeat; rep++ {
			cfg.Cache = qcache.New()
			start := time.Now()
			results, err := cfg.AnnotateBatch(ctx, tables)
			if err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			annotations = 0
			for _, res := range results {
				annotations += len(res.Annotations)
			}
			if tps := float64(len(tables)) / secs; tps > best {
				best = tps
			}
		}
		if r.Annotations == 0 {
			r.Annotations = annotations
		} else if r.Annotations != annotations {
			return fmt.Errorf("annotation count changed across settings: %d vs %d", r.Annotations, annotations)
		}
		r.Cold = append(r.Cold, point{
			Parallelism:  p,
			TablesPerSec: best,
			RowsPerSec:   best * float64(rows) / float64(len(tables)),
		})

		// Warm: one populating pass, then measure with a full-hit cache.
		cfg.Cache = qcache.New()
		if _, err := cfg.AnnotateBatch(ctx, tables); err != nil {
			return err
		}
		best = 0.0
		for rep := 0; rep < o.repeat; rep++ {
			start := time.Now()
			if _, err := cfg.AnnotateBatch(ctx, tables); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			if tps := float64(len(tables)) / secs; tps > best {
				best = tps
			}
		}
		r.Warm = append(r.Warm, point{
			Parallelism:  p,
			TablesPerSec: best,
			RowsPerSec:   best * float64(rows) / float64(len(tables)),
		})
		fmt.Fprintf(stdout, "p=%d: cold %.1f tables/s (%.0f rows/s), warm %.1f tables/s\n",
			p, r.Cold[len(r.Cold)-1].TablesPerSec, r.Cold[len(r.Cold)-1].RowsPerSec,
			r.Warm[len(r.Warm)-1].TablesPerSec)
	}

	traj := trajectory{
		Description: "end-to-end annotation throughput on the canonical seeded corpus (lab seed 42, small scale, GFT tables); runs append chronologically",
	}
	if data, err := os.ReadFile(o.out); err == nil {
		if err := json.Unmarshal(data, &traj); err != nil {
			return fmt.Errorf("%s exists but is not a trajectory file: %w", o.out, err)
		}
	}
	traj.Runs = append(traj.Runs, r)
	if first, latest := coldP4(traj.Runs[0]), coldP4(traj.Runs[len(traj.Runs)-1]); first > 0 && latest > 0 {
		traj.ColdP4Speedup = latest / first
	}

	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d tables, %d rows, %d annotations (cold p4 speedup vs first run: %.2fx)\n",
		o.label, r.Tables, r.Rows, r.Annotations, traj.ColdP4Speedup)
	return nil
}

// coldP4 returns the run's cold tables/s at parallelism 4, or 0 when the
// sweep did not include that point.
func coldP4(r run) float64 {
	for _, p := range r.Cold {
		if p.Parallelism == 4 {
			return p.TablesPerSec
		}
	}
	return 0
}

func parseSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sweep entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
