// People ambiguity: reproduces the hardest case of §6.2 — person names with
// several bearers across actor/singer/scientist and non-Γ confuser senses.
// The example contrasts the SVM and Naive Bayes classifiers on the same
// table and shows where the Eq. 1 majority rule abstains.
//
//	go run ./examples/people_ambiguity
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/annotate"
	"repro/internal/world"
)

func main() {
	ctx := context.Background()
	svc, err := repro.New(ctx, repro.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	w := svc.Lab().World

	// Pick singers whose names are shared with other entities or
	// confuser senses — the genuinely ambiguous rows.
	tbl := repro.Table{Name: "singers"}
	tbl.Columns = []repro.Column{
		{Header: "Name", Type: repro.Text},
		{Header: "Debut", Type: repro.Number},
	}
	var picked []*world.Entity
	for _, e := range w.TableEntities(world.Singer) {
		if len(w.ByName(e.Name)) > 1 || e.AmbiguousWith != "" {
			picked = append(picked, e)
		}
		if len(picked) == 8 {
			break
		}
	}
	for i, e := range picked {
		if err := tbl.AppendRow(e.Name, fmt.Sprint(1970+i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("table of %d ambiguous singer names:\n", len(picked))
	for _, e := range picked {
		others := []string{}
		for _, o := range w.ByName(e.Name) {
			if o != e {
				others = append(others, string(o.Type))
			}
		}
		if e.AmbiguousWith != "" {
			others = append(others, e.AmbiguousWith)
		}
		fmt.Printf("  %-22s also a: %s\n", e.Name, strings.Join(others, ", "))
	}

	for _, clf := range []string{"svm", "bayes"} {
		// One world, two classifiers: drive the pipeline configuration
		// directly over the service's components, post-processing off to
		// show the raw majority-rule behaviour.
		res, err := annotate.Config{
			Searcher:   svc.Engine(),
			Classifier: svc.Classifier(clf),
			Types:      repro.Types(),
		}.Annotate(ctx, &tbl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: %d/%d names annotated\n", strings.ToUpper(clf), len(res.Annotations), len(picked))
		annotated := map[int]repro.Annotation{}
		for _, ann := range res.Annotations {
			annotated[ann.Row] = ann
		}
		for i, e := range picked {
			if ann, ok := annotated[i+1]; ok {
				verdict := "WRONG"
				if ann.Type == "singer" {
					verdict = "correct"
				}
				fmt.Printf("  %-22s -> %-10s (score %.2f, %s)\n", e.Name, ann.Type, ann.Score, verdict)
			} else {
				fmt.Printf("  %-22s -> no majority; abstained\n", e.Name)
			}
		}
	}
}
