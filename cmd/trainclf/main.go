// Command trainclf runs the §5.2.1 training procedure for a chosen set of
// types and inspects the result: corpus sizes, held-out metrics, the
// confusion matrix (which subsumption pairs get confused, §6.2) and the
// heaviest SVM features per type.
//
// Usage:
//
//	trainclf [-types restaurant,museum,...] [-classifier svm|bayes|logistic]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/classify"
	"repro/internal/kb"
	"repro/internal/world"
)

func main() {
	var (
		typesArg   = flag.String("types", "", "comma-separated types (default: all twelve)")
		clfName    = flag.String("classifier", "svm", "svm | bayes | logistic")
		seed       = flag.Int64("seed", 42, "system seed")
		perEntity  = flag.Int("snippets", 6, "snippets collected per entity")
		maxEnt     = flag.Int("entities", 60, "entities sampled per type")
		topWeights = flag.Int("top", 8, "top features to print per type (svm only)")
	)
	flag.Parse()

	var types []world.Type
	if *typesArg == "" {
		types = world.AllTypes
	} else {
		for _, s := range strings.Split(*typesArg, ",") {
			types = append(types, world.Type(strings.TrimSpace(s)))
		}
	}

	fmt.Fprintln(os.Stderr, "building system...")
	svc, err := repro.New(context.Background(), repro.WithSeed(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainclf:", err)
		os.Exit(1)
	}
	builder := &kb.TrainingBuilder{
		KB: svc.Lab().KB, Engine: svc.Engine(),
		SnippetsPerEntity: *perEntity, MaxEntities: *maxEnt, Seed: *seed,
	}
	train, test, stats := builder.Collect(types)
	fmt.Println("corpus:")
	for _, s := range stats {
		fmt.Printf("  %-18s |TR|=%-6d |TE|=%d\n", s.Type, s.Train, s.Test)
	}

	var trainer classify.Trainer
	switch *clfName {
	case "bayes":
		trainer = classify.BayesTrainer{}
	case "logistic":
		trainer = classify.LogisticTrainer{Seed: *seed}
	default:
		trainer = classify.LinearSVMTrainer{Seed: *seed}
	}
	model := trainer.Train(train)

	acc, perLabel := classify.Evaluate(model, test)
	fmt.Printf("\nheld-out accuracy: %.3f (macro F %.3f)\n", acc, classify.MacroF1(perLabel))
	labels := make([]string, 0, len(perLabel))
	for l := range perLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		m := perLabel[l]
		fmt.Printf("  %-18s P=%.2f R=%.2f F=%.2f\n", l, m.Precision(), m.Recall(), m.F1())
	}

	cm := classify.Confusion(model, test)
	fmt.Println("\nmost confused (gold -> predicted):")
	for _, pair := range cm.MostConfused(6) {
		fmt.Printf("  %-18s -> %-18s %d\n", pair[0], pair[1], cm.Count(pair[0], pair[1]))
	}

	if svm, ok := model.(*classify.LinearSVM); ok {
		fmt.Println("\nheaviest positive features per type:")
		for _, t := range types {
			terms, weights := svm.Weights(string(t))
			type tw struct {
				term string
				w    float64
			}
			tws := make([]tw, len(terms))
			for i := range terms {
				tws[i] = tw{terms[i], weights[i]}
			}
			sort.Slice(tws, func(i, j int) bool { return tws[i].w > tws[j].w })
			var tops []string
			for i := 0; i < *topWeights && i < len(tws); i++ {
				tops = append(tops, tws[i].term)
			}
			fmt.Printf("  %-18s %s\n", t, strings.Join(tops, " "))
		}
	}
}
