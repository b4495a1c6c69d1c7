// Quickstart: build the annotation service, hand it a small GFT-style table
// and print which cells contain entities of which types.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"repro"
	"repro/internal/world"
)

func main() {
	ctx := context.Background()

	// New generates the synthetic universe, indexes its web corpus, and
	// trains the snippet classifier — everything the §5 pipeline needs.
	// Expensive once; reuse the service for every request. Parallelism
	// fans the cell queries of each table out over a worker pool; the
	// output is identical at any setting.
	svc, err := repro.New(ctx, repro.WithSeed(7), repro.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}

	// Build a table mixing two museums and a restaurant drawn from the
	// universe, plus columns that must NOT be annotated.
	tbl := repro.Table{Name: "city-guide"}
	tbl.Columns = []repro.Column{
		{Header: "Name", Type: repro.Text},
		{Header: "Address", Type: repro.Location},
		{Header: "Phone", Type: repro.Text},
	}
	w := svc.Lab().World
	for _, e := range []*world.Entity{
		w.OfType(world.Museum)[0],
		w.OfType(world.Restaurant)[0],
		w.OfType(world.Museum)[1],
	} {
		addr := e.Address(w.Gaz).Format()
		if err := tbl.AppendRow(e.Name, addr, e.Phone); err != nil {
			log.Fatal(err)
		}
	}

	// One request, paper defaults: all twelve types, k=10, post-processing
	// and spatial disambiguation on.
	resp, err := svc.Annotate(ctx, &repro.AnnotateRequest{Table: &tbl})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("annotated %d cells with %d search queries in %v\n",
		resp.Stats.Annotated, resp.Stats.Queries, resp.Timing.Total.Round(time.Millisecond))
	for _, ann := range resp.Annotations {
		fmt.Printf("  T(%d,%d) = %-30q -> %s (score %.2f)\n",
			ann.Row, ann.Col, tbl.Cell(ann.Row, ann.Col), ann.Type, ann.Score)
	}
	for _, reason := range slices.Sorted(maps.Keys(resp.Stats.Skipped)) {
		fmt.Printf("  pre-processing skipped %d cells (%s)\n", resp.Stats.Skipped[reason], reason)
	}
}
