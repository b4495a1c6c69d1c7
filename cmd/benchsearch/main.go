// Command benchsearch measures the raw throughput of the search substrate —
// indexing speed, term-query speed and phrase-query speed over the canonical
// synthetic corpus — and records the numbers in a JSON trajectory file
// (BENCH_search.json). Each invocation appends one labelled run, so the file
// accumulates a before/after history across search-core changes and the
// speedup of the latest run over the first is computed automatically.
//
// The measured index is a one-shard search.ShardedIndex. Runs recorded before
// the monolithic Index lost its own query surface measured that surface
// instead (same scoring kernel, a term-id snippet anchor the sharded
// materializer does not use), so the first run recorded after the switch
// should say so in its -label rather than re-record the history.
//
// Usage:
//
//	benchsearch -label "PR2 positional+heap" [-out BENCH_search.json]
//	            [-seed 42] [-queries 2000]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/search"
	"repro/internal/webgen"
	"repro/internal/world"
)

type run struct {
	Label string `json:"label"`
	// RecordedAt is RFC 3339; absent on runs recorded before it existed.
	// CI checks that timestamps, where present, are chronological.
	RecordedAt          string  `json:"recorded_at,omitempty"`
	CorpusDocs          int     `json:"corpus_docs"`
	IndexDocsPerSec     float64 `json:"index_docs_per_sec"`
	TermQueriesPerSec   float64 `json:"term_queries_per_sec"`
	PhraseQueriesPerSec float64 `json:"phrase_queries_per_sec"`
	// BatchQueriesPerSec is the term workload through SearchBatch (chunks
	// of 32), the shape the batched annotation pipeline submits; 0 on runs
	// recorded before the batch API existed.
	BatchQueriesPerSec float64 `json:"batch_queries_per_sec,omitempty"`
	// BatchSweepQueriesPerSec is the same workload at each swept batch size
	// (keys "1", "8", "32", "128"), showing how throughput scales with the
	// amortization of per-batch setup (term resolution, accumulator reuse);
	// absent on runs recorded before the sweep existed.
	BatchSweepQueriesPerSec map[string]float64 `json:"batch_sweep_queries_per_sec,omitempty"`
}

type trajectory struct {
	Description   string  `json:"description"`
	Runs          []run   `json:"runs"`
	PhraseSpeedup float64 `json:"phrase_speedup_latest_vs_first"`
	TermSpeedup   float64 `json:"term_speedup_latest_vs_first"`
}

func main() {
	var (
		label   = flag.String("label", "", "label for this run (required)")
		out     = flag.String("out", "BENCH_search.json", "trajectory file to append to")
		seed    = flag.Int64("seed", 42, "corpus seed (matches the canonical lab)")
		queries = flag.Int("queries", 2000, "number of queries per timing loop")
	)
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchsearch: -label is required")
		os.Exit(2)
	}

	w := world.Generate(world.Config{Seed: *seed, KBPerType: 60})
	docs := webgen.BuildCorpus(w, webgen.Config{Seed: *seed + 1})

	// Indexing throughput: build (and freeze) the index the pipeline queries.
	start := time.Now()
	b := search.NewBuilder(1)
	for _, d := range docs {
		b.Add(d)
	}
	ix := b.Freeze()
	indexSecs := time.Since(start).Seconds()

	// Query workload: the annotation pipeline's two query shapes (§5.2.1) —
	// plain "<name> <type>" term queries and `"<name>" <type>` phrase queries.
	ents := w.Entities
	terms := make([]string, *queries)
	phrases := make([]string, *queries)
	for i := 0; i < *queries; i++ {
		e := ents[i%len(ents)]
		terms[i] = e.Name + " " + world.TypeName(e.Type)
		phrases[i] = `"` + e.Name + `" ` + world.TypeName(e.Type)
	}

	start = time.Now()
	for _, q := range terms {
		ix.Search(q, 10)
	}
	termSecs := time.Since(start).Seconds()

	start = time.Now()
	for _, q := range phrases {
		ix.SearchPhrase(q, 10)
	}
	phraseSecs := time.Since(start).Seconds()

	start = time.Now()
	for lo := 0; lo < len(terms); lo += 32 {
		ix.SearchBatch(terms[lo:min(lo+32, len(terms))], 10)
	}
	batchSecs := time.Since(start).Seconds()

	// Batch-size sweep: the same query stream chunked at each size, so the
	// trajectory records how much of the batch path's win comes from
	// amortizing per-batch setup across more queries.
	sweep := make(map[string]float64, 4)
	for _, size := range []int{1, 8, 32, 128} {
		start = time.Now()
		for lo := 0; lo < len(terms); lo += size {
			ix.SearchBatch(terms[lo:min(lo+size, len(terms))], 10)
		}
		sweep[fmt.Sprint(size)] = float64(*queries) / time.Since(start).Seconds()
	}

	r := run{
		Label:                   *label,
		RecordedAt:              time.Now().UTC().Format(time.RFC3339),
		CorpusDocs:              len(docs),
		IndexDocsPerSec:         float64(len(docs)) / indexSecs,
		TermQueriesPerSec:       float64(*queries) / termSecs,
		PhraseQueriesPerSec:     float64(*queries) / phraseSecs,
		BatchQueriesPerSec:      float64(*queries) / batchSecs,
		BatchSweepQueriesPerSec: sweep,
	}

	traj := trajectory{
		Description: "search substrate throughput on the canonical seeded corpus (seed 42); runs append chronologically",
	}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &traj); err != nil {
			fmt.Fprintf(os.Stderr, "benchsearch: %s exists but is not a trajectory file: %v\n", *out, err)
			os.Exit(1)
		}
	}
	traj.Runs = append(traj.Runs, r)
	first := traj.Runs[0]
	traj.PhraseSpeedup = r.PhraseQueriesPerSec / first.PhraseQueriesPerSec
	traj.TermSpeedup = r.TermQueriesPerSec / first.TermQueriesPerSec

	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsearch:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsearch:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: indexed %d docs at %.0f docs/s, term %.0f q/s, phrase %.0f q/s, batch %.0f q/s (phrase speedup vs first run: %.2fx)\n",
		*label, r.CorpusDocs, r.IndexDocsPerSec, r.TermQueriesPerSec, r.PhraseQueriesPerSec, r.BatchQueriesPerSec, traj.PhraseSpeedup)
	fmt.Printf("  batch sweep: size 1 %.0f, 8 %.0f, 32 %.0f, 128 %.0f q/s\n",
		sweep["1"], sweep["8"], sweep["32"], sweep["128"])
}
