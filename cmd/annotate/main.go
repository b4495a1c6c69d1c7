// Command annotate runs the paper's entity discovery and annotation pipeline
// over a CSV table and prints the annotated cells. The pipeline is backed by
// the built-in synthetic web (see DESIGN.md), so the tool is most useful on
// tables emitted by cmd/mktables or assembled from the synthetic universe.
//
// Usage:
//
//	annotate -csv table.csv [-types restaurant,museum] [-k 10] [-no-post] [-disambig] [-parallel 8]
//
// -parallel N fans the table's cell queries out over N concurrent workers;
// the output is identical at any setting, only the wall-clock changes (the
// paper's §6.4 analysis shows search round-trips dominate the running time).
// The tool is the CLI face of the v1 service API: flags map one-to-one onto
// AnnotateRequest fields, and invalid flag values surface the service's
// typed errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"repro"
	"repro/internal/table"
)

func main() {
	var (
		csvPath  = flag.String("csv", "", "CSV file to annotate (first record is the header); required unless -json is given")
		jsonPath = flag.String("json", "", "typed-JSON table to annotate (preserves GFT column types, see internal/table)")
		typesArg = flag.String("types", "", "comma-separated target types (default: all twelve)")
		k        = flag.Int("k", 10, "snippets per query")
		noPost   = flag.Bool("no-post", false, "disable the §5.3 post-processing")
		disambig = flag.Bool("disambig", true, "enable §5.2.2 spatial disambiguation")
		seed     = flag.Int64("seed", 42, "system seed")
		scale    = flag.String("scale", repro.ScaleSmall, "system scale: small | full")
		explain  = flag.Bool("explain", false, "print the per-cell decision trace instead of the annotation summary")
		parallel = flag.Int("parallel", 1, "cell-query parallelism (identical output at any setting)")
	)
	flag.Parse()
	if *csvPath == "" && *jsonPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	var tbl *table.Table
	if *jsonPath != "" {
		f, err := os.Open(*jsonPath)
		if err != nil {
			fatal(err)
		}
		tbl, err = table.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		f, err := os.Open(*csvPath)
		if err != nil {
			fatal(err)
		}
		var rerr error
		tbl, rerr = table.ReadCSV(f, *csvPath)
		f.Close()
		if rerr != nil {
			fatal(rerr)
		}
	}

	ctx := context.Background()
	fmt.Fprintln(os.Stderr, "building annotation service...")
	svc, err := repro.New(ctx,
		repro.WithSeed(*seed),
		repro.WithScale(*scale),
		repro.WithParallelism(*parallel),
	)
	if err != nil {
		fatal(err)
	}

	req := &repro.AnnotateRequest{
		Table:        tbl,
		K:            *k,
		Postprocess:  repro.ToggleOn,
		Disambiguate: repro.ToggleOn,
	}
	if *noPost {
		req.Postprocess = repro.ToggleOff
	}
	if !*disambig {
		req.Disambiguate = repro.ToggleOff
	}
	if *typesArg != "" {
		req.Types = strings.Split(*typesArg, ",")
	}

	// Trace-only mode: Explain is the traced request's one pass, printing
	// the trace instead of the annotation summary.
	if *explain {
		trace, err := svc.Explain(ctx, req)
		if err != nil {
			fatal(err)
		}
		for _, line := range trace {
			fmt.Println(line)
		}
		return
	}

	resp, err := svc.Annotate(ctx, req)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("table %s: %d rows x %d cols, %d queries issued\n",
		tbl.Name, resp.Stats.Rows, resp.Stats.Cols, resp.Stats.Queries)
	if len(resp.Annotations) == 0 {
		fmt.Println("no entities found")
		return
	}
	fmt.Printf("%-4s %-4s %-35s %-18s %s\n", "row", "col", "cell", "type", "score")
	for _, ann := range resp.Annotations {
		fmt.Printf("%-4d %-4d %-35s %-18s %.2f\n",
			ann.Row, ann.Col, clip(tbl.Cell(ann.Row, ann.Col), 34), ann.Type, ann.Score)
	}
	for _, reason := range slices.Sorted(maps.Keys(resp.Stats.Skipped)) {
		fmt.Fprintf(os.Stderr, "skipped %d cells: %s\n", resp.Stats.Skipped[reason], reason)
	}
}

// clip shortens s to at most n runes, ending a cut string in "…", so a cell
// stays valid UTF-8 and fmt's rune-counted padding keeps the column aligned.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "annotate:", err)
	os.Exit(1)
}
