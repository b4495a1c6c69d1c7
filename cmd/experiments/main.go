// Command experiments regenerates every table and analysis of the paper's
// evaluation section (§6) and prints them in the paper's layout.
//
// Usage:
//
//	experiments [-scale full|small] [-seed N] [-only table1|table2|table3|wiki|efficiency|coverage|ksweep|cluster|hybrid|subsumption|ambiguity]
//	            [-parallel N] [-share-cache] [-latency 250ms]
//	            [-scenarios [-scenario-worlds a,b] [-scenario-ingests x,y]]
//
// -scenarios switches to the scenario matrix: every (adversarial world ×
// ingestion variant) cell runs the full pipeline over the scenario dataset
// and reports annotation micro-F, geo disambiguation accuracy and whether
// the cell's output is byte-identical to its clean-csv twin. The matrix
// builds one lab per world, so the flags above (scale, seed, parallel,
// shards) shape those labs; -only/-latency/-share-cache do not apply.
//
// Use -scale to trade corpus size for runtime. -parallel N annotates the
// evaluation tables over N concurrent workers; every reported number is
// identical at any setting (the pipeline's merge stage is deterministic).
// -share-cache enables the cross-table query-verdict cache, so repeated
// cell values across tables stop costing search-engine round-trips; quality
// numbers are unchanged but query counts drop, so it is off by default to
// keep the printed tables in the paper's cost regime. With -share-cache the
// run ends with a cache hits/misses/entries summary.
//
// The report rendering itself lives in writeReport (report.go), which the
// golden regression tests byte-compare against testdata/golden/.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/eval"
	"repro/internal/search"
)

func main() {
	var (
		seed       = flag.Int64("seed", 42, "experiment seed")
		scale      = flag.String("scale", "full", "experiment scale: full | small")
		latency    = flag.Duration("latency", 250*time.Millisecond, "simulated search latency for the efficiency analysis")
		only       = flag.String("only", "", "run a single experiment: table1 | table2 | table3 | wiki | efficiency | coverage | ksweep | cluster | hybrid")
		parallel   = flag.Int("parallel", 1, "annotation parallelism (tables annotated concurrently; results identical at any setting)")
		shards     = flag.Int("shards", 0, fmt.Sprintf("search index shards, at most %d (0 = one per CPU, capped at 8; results identical at any count)", search.FewShards))
		shareCache = flag.Bool("share-cache", false, "share query verdicts across tables and analyses (reduces query counts, quality unchanged)")
		scenarios  = flag.Bool("scenarios", false, "run the scenario matrix (ingestion variants x adversarial worlds) instead of the §6 report")
		scnWorlds  = flag.String("scenario-worlds", "", "comma-separated world-scenario filter for -scenarios (default: all)")
		scnIngests = flag.String("scenario-ingests", "", "comma-separated ingestion-variant filter for -scenarios (default: all)")
	)
	flag.Parse()
	if *shards < 0 || *shards > search.FewShards {
		fmt.Fprintf(os.Stderr, "error: -shards %d: want 0..%d\n", *shards, search.FewShards)
		os.Exit(2)
	}

	cfg := eval.LabConfig{Seed: *seed, Parallelism: *parallel, ShareCache: *shareCache, SearchShards: *shards}
	if *scale == "small" {
		cfg.KBPerType = 60
		cfg.SnippetsPerEntity = 5
		cfg.MaxTrainEntities = 60
	}

	if *scenarios {
		// Standalone mode: the matrix builds one lab per world scenario
		// itself, so the main lab is never constructed.
		rc := scenarioReportConfig{
			LabCfg:  cfg,
			Worlds:  splitList(*scnWorlds),
			Ingests: splitList(*scnIngests),
		}
		if err := writeScenarioReport(os.Stdout, os.Stderr, rc); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "building lab (scale=%s, seed=%d)...\n", *scale, *seed)
	start := time.Now()
	lab := eval.NewLab(cfg)
	fmt.Fprintf(os.Stderr, "lab ready in %v (%d docs indexed)\n", time.Since(start).Round(time.Millisecond), lab.Engine.IndexSize())

	writeReport(os.Stdout, os.Stderr, lab, reportConfig{Only: *only, Latency: *latency, LabCfg: cfg})
}
