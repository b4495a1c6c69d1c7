// New type: the §5.2.1 training procedure exposed step by step, the way a
// user would bootstrap the annotator for a type of their own. It selects a
// root category in the knowledge base, walks the category network, applies
// the name heuristic, gathers snippets through the search engine, trains a
// classifier and evaluates it on the held-out split.
//
//	go run ./examples/newtype
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/classify"
	"repro/internal/kb"
	"repro/internal/world"
)

func main() {
	svc, err := repro.New(context.Background(), repro.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	base := svc.Lab().KB

	// Step 1: the one manual step of the whole pipeline (§6.4) — pick
	// the root category for the target type.
	target := world.Theatre
	root, ok := base.Root(target)
	if !ok {
		panic("no root category")
	}
	fmt.Printf("root category: %q\n", base.CategoryName(root))

	// Step 2: walk the category network (the iterated SPARQL queries).
	descendants := base.Descendants(root)
	fmt.Printf("category network: %d categories under the root\n", len(descendants))

	// Step 3: the name heuristic prunes categories that do not mention
	// the type ("Curators"-style noise).
	kept := base.FilterByTypeName(descendants, world.TypeName(target))
	fmt.Printf("after the name heuristic: %d categories kept\n", len(kept))

	// Step 4: sample positive entities and collect labelled snippets by
	// querying the engine with "entity name + type name".
	rng := rand.New(rand.NewSource(5))
	positives := base.PositiveEntities(target, 40, rng)
	fmt.Printf("sampled %d positive entities, e.g. %q\n", len(positives), positives[0])

	builder := &kb.TrainingBuilder{
		KB: base, Engine: svc.Engine(),
		SnippetsPerEntity: 8, MaxEntities: 40, Seed: 5,
	}
	// Train against a contrast class so the binary distinction is real.
	train, test, stats := builder.Collect([]world.Type{target, world.Museum})
	for _, s := range stats {
		fmt.Printf("corpus for %-10s |TR|=%d |TE|=%d\n", s.Type, s.Train, s.Test)
	}

	// Step 5: train and evaluate, as in Table 2.
	model := classify.LinearSVMTrainer{Seed: 5}.Train(train)
	acc, perLabel := classify.Evaluate(model, test)
	fmt.Printf("held-out accuracy %.3f\n", acc)
	for label, m := range perLabel {
		fmt.Printf("  %-10s P=%.2f R=%.2f F=%.2f\n", label, m.Precision(), m.Recall(), m.F1())
	}
}
