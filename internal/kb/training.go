package kb

import (
	"math/rand"

	"repro/internal/classify"
	"repro/internal/search"
	"repro/internal/world"
)

// TrainingBuilder creates training and test sets by the procedure of §5.2.1:
// for every type, sample positive entities from the knowledge base, query the
// search engine with "entity name + type name" (the type word disambiguates
// the query), collect up to SnippetsPerEntity snippets, label them with the
// type, and split 75/25 into train and test.
type TrainingBuilder struct {
	KB     *KB
	Engine *search.Engine
	// SnippetsPerEntity caps the snippets gathered per entity; the paper
	// uses up to 10. 0 selects 10.
	SnippetsPerEntity int
	// MaxEntities caps the sampled P set per type; 0 means no cap.
	MaxEntities int
	// Seed drives sampling and the split shuffle.
	Seed int64
}

// CorpusStats reports the per-type training/test sizes, the |TR| and |TE|
// columns of Table 2.
type CorpusStats struct {
	Type  world.Type
	Train int
	Test  int
}

// Collect builds the multiclass train/test sets over the given types.
func (b *TrainingBuilder) Collect(types []world.Type) (train, test classify.Dataset, stats []CorpusStats) {
	per := b.SnippetsPerEntity
	if per <= 0 {
		per = 10
	}
	rng := rand.New(rand.NewSource(b.Seed))
	for _, t := range types {
		var typed classify.Dataset
		for _, name := range b.KB.PositiveEntities(t, b.MaxEntities, rng) {
			for _, res := range b.Engine.Search(name+" "+world.TypeName(t), per) {
				typed.Add(res.Snippet, string(t))
			}
		}
		typed.Shuffle(rng)
		tr, te := typed.Split(0.75)
		train.Examples = append(train.Examples, tr.Examples...)
		test.Examples = append(test.Examples, te.Examples...)
		stats = append(stats, CorpusStats{Type: t, Train: tr.Len(), Test: te.Len()})
	}
	train.Shuffle(rng)
	return train, test, stats
}
