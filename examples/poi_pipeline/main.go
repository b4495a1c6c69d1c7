// POI pipeline: the paper's motivating application (§1) end to end —
// retrieve tables from the GFT-style store, discover and annotate their
// entities through the batch service API, extract the points of interest
// into an RDF repository and run faceted queries over it.
//
//	go run ./examples/poi_pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"repro"
	"repro/internal/rdf"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()

	// WithParallelism fans cell queries and batched tables out over
	// worker pools; WithSharedCache lets tables that repeat cell values
	// share verdicts — both attack the per-row search latency the paper
	// measures in §6.4.
	svc, err := repro.New(ctx,
		repro.WithSeed(11),
		repro.WithParallelism(8),
		repro.WithSharedCache(),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Load the synthetic GFT dataset into an indexed store and use the
	// store's keyword index to retrieve candidate restaurant tables, as
	// the paper does with the GFT search API.
	store := table.NewStore()
	for _, t := range svc.Lab().GFT.Tables {
		if err := store.Add(t); err != nil {
			log.Fatal(err)
		}
	}
	candidates := store.Search("restaurant")
	fmt.Printf("store holds %d tables; %d match keyword 'restaurant'\n",
		store.Len(), len(candidates))

	// Annotate the candidates through the batch API — responses come back
	// in request order — and extract POIs into the RDF repository.
	reqs := make([]*repro.AnnotateRequest, len(candidates))
	for i, t := range candidates {
		reqs[i] = &repro.AnnotateRequest{Table: t}
	}
	resps, err := svc.AnnotateBatch(ctx, reqs)
	if err != nil {
		log.Fatal(err)
	}
	repo := rdf.NewStore()
	x := &rdf.Extractor{Gazetteer: svc.Geo(), MinScore: 0.5}
	extracted, queries, hits := 0, 0, 0
	for i, resp := range resps {
		t := candidates[i]
		extracted += x.Extract(t, resp.Annotations, repo)
		queries += resp.Stats.Queries
		hits += resp.CacheStats.Hits
		fmt.Printf("  [%d/%d] %-24s %d annotations in %v\n",
			i+1, len(reqs), t.Name, resp.Stats.Annotated, resp.Timing.Total.Round(time.Millisecond))
	}
	fmt.Printf("extracted %d POIs (%d triples) with %d queries, %d cache hits\n",
		extracted, repo.Len(), queries, hits)

	// Faceted browsing: counts by type, largest first (ties by name), then
	// a conjunctive filter.
	fmt.Println("\nfacet rdf:type:")
	types := repo.FacetValues(rdf.PredType)
	names := slices.Sorted(maps.Keys(types))
	slices.SortStableFunc(names, func(a, b string) int { return types[b] - types[a] })
	for _, typ := range names {
		fmt.Printf("  %-20s %d\n", typ, types[typ])
	}
	cities := repo.FacetValues(rdf.PredCity)
	var anyCity string
	for c := range cities {
		if anyCity == "" || c < anyCity {
			anyCity = c
		}
	}
	fmt.Printf("\nrestaurants in %s:\n", anyCity)
	subjects := repo.FilterSubjects(map[string]string{
		rdf.PredType: "restaurant",
		rdf.PredCity: anyCity,
	})
	for _, s := range subjects {
		for _, label := range repo.Objects(s, rdf.PredLabel) {
			fmt.Printf("  %s\n", label)
		}
	}
	if len(subjects) == 0 {
		fmt.Println("  (none this seed — try another city facet)")
	}
}
