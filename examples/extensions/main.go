// Extensions: the paper's two future-work proposals working side by side —
// the hybrid catalogue+discovery annotator (§6.4, "use Limaye to annotate
// entities that belong to a pre-compiled catalogue, and resort to the search
// engine only to annotate previously unseen entities") and the
// cluster-separated decision rule (§5.2, "clustering the results returned by
// the search engine and classify separately the snippets").
//
//	go run ./examples/extensions
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/annotate"
	"repro/internal/world"
)

func main() {
	ctx := context.Background()
	svc, err := repro.New(ctx, repro.WithSeed(17))
	if err != nil {
		log.Fatal(err)
	}
	w := svc.Lab().World

	// A table mixing catalogue-known and unknown museums: table entities
	// have ~22% KB coverage, so the catalogue recognises only some.
	tbl := repro.Table{Name: "museums"}
	tbl.Columns = []repro.Column{{Header: "Name", Type: repro.Text}}
	known, unknown := 0, 0
	for _, e := range w.TableEntities(world.Museum) {
		if e.InKB && known < 4 {
			known++
		} else if !e.InKB && unknown < 4 {
			unknown++
		} else {
			continue
		}
		if err := tbl.AppendRow(e.Name); err != nil {
			log.Fatal(err)
		}
		if known+unknown == 8 {
			break
		}
	}
	fmt.Printf("table: %d museums (%d in the catalogue, %d unknown)\n\n",
		tbl.NumRows(), known, unknown)

	// The extensions are pipeline-configuration knobs rather than request
	// knobs, so they drive annotate.Config over the service's components.
	discovery := annotate.Config{
		Searcher:    svc.Engine(),
		Classifier:  svc.Classifier(svc.ClassifierName()),
		Types:       repro.Types(),
		Postprocess: true,
	}
	annotateTable := func(cfg annotate.Config, t *repro.Table) *annotate.Result {
		res, err := cfg.Annotate(ctx, t)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Discovery-only vs hybrid: same annotations, fewer queries.
	res := annotateTable(discovery, &tbl)
	fmt.Printf("discovery only: %d annotations, %d search queries\n",
		len(res.Annotations), res.Queries)

	hybrid := &annotate.Hybrid{
		Catalogue: &annotate.CatalogueAnnotator{Catalogue: svc.Lab().KB.Catalogue()},
		Discovery: discovery,
	}
	hres := hybrid.AnnotateTable(&tbl)
	fmt.Printf("hybrid:         %d annotations, %d search queries (catalogue answered the rest)\n\n",
		len(hres.Annotations), hres.Queries)

	// Cluster rule on an ambiguous name: pick a singer with a confuser
	// sense and compare the flat and clustered decisions.
	var ambiguous *world.Entity
	for _, e := range w.TableEntities(world.Singer) {
		if e.AmbiguousWith != "" {
			ambiguous = e
			break
		}
	}
	if ambiguous == nil {
		fmt.Println("no ambiguous singer in this universe; try another seed")
		return
	}
	fmt.Printf("ambiguous name: %q (also a %s)\n", ambiguous.Name, ambiguous.AmbiguousWith)
	one := repro.Table{Name: "one"}
	one.Columns = []repro.Column{{Header: "Name", Type: repro.Text}}
	if err := one.AppendRow(ambiguous.Name); err != nil {
		log.Fatal(err)
	}

	report := func(label string, r *annotate.Result) {
		if len(r.Annotations) == 0 {
			fmt.Printf("  %-14s abstained (no majority)\n", label)
			return
		}
		a := r.Annotations[0]
		fmt.Printf("  %-14s %s (score %.2f)\n", label, a.Type, a.Score)
	}
	report("flat rule:", annotateTable(discovery, &one))

	clustered := discovery
	clustered.ClusterThreshold = 0.4
	report("cluster rule:", annotateTable(clustered, &one))
}
