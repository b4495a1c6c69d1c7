// Package classify implements the text classifiers evaluated in §6.1 of the
// paper: a multinomial Naive Bayes classifier (mirroring the LingPipe
// configuration: prior counts 1.0, no length normalization) and a linear
// support vector machine trained with Pegasos, which stands in for the
// LibSVM RBF C-SVC the paper used (DESIGN.md, substitution table).
package classify

import (
	"math/rand"
	"sort"

	"repro/internal/textproc"
)

// Example is a single labelled snippet in feature form.
type Example struct {
	Features textproc.Features
	Label    string
}

// Dataset is an ordered collection of labelled examples.
type Dataset struct {
	Examples []Example
}

// Add appends an example built from raw snippet text.
func (d *Dataset) Add(snippet, label string) {
	d.Examples = append(d.Examples, Example{Features: textproc.Extract(snippet), Label: label})
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// Labels returns the sorted set of distinct labels present in the dataset.
func (d *Dataset) Labels() []string {
	seen := map[string]struct{}{}
	for _, ex := range d.Examples {
		seen[ex.Label] = struct{}{}
	}
	labels := make([]string, 0, len(seen))
	for l := range seen {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// Shuffle permutes the examples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Examples), func(i, j int) {
		d.Examples[i], d.Examples[j] = d.Examples[j], d.Examples[i]
	})
}

// Split partitions the dataset into a training set holding frac of the
// examples and a test set holding the rest. The paper uses frac = 0.75
// (§5.2.1). The split is positional; call Shuffle first for a random split.
func (d *Dataset) Split(frac float64) (train, test Dataset) {
	n := int(frac * float64(len(d.Examples)))
	if n < 0 {
		n = 0
	}
	if n > len(d.Examples) {
		n = len(d.Examples)
	}
	train.Examples = d.Examples[:n]
	test.Examples = d.Examples[n:]
	return train, test
}

// Classifier assigns a label to a feature vector.
type Classifier interface {
	Predict(f textproc.Features) string
}

// TermClassifier is a Classifier bound to a vocabulary: it also labels a
// snippet given as its normalised tokens' ids in that vocabulary, in snippet
// order (negative ids are words without a token and are skipped) — the form a
// search hit carries as search.Result.Terms — and returns the label
// Predict(textproc.Extract(snippet)) would, without the text. The ids must
// come from the index whose vocabulary the classifier was bound to.
type TermClassifier interface {
	Classifier
	PredictTerms(ids []int32) string
}
