// Package classify implements the text classifiers evaluated in §6.1 of the
// paper: a multinomial Naive Bayes classifier (mirroring the LingPipe
// configuration: prior counts 1.0, no length normalization) and support
// vector machines — a linear SVM trained with Pegasos for the large snippet
// corpora and a kernel C-SVC trained with SMO and an RBF kernel, matching the
// LibSVM setup the paper used, selected by grid search with k-fold cross
// validation.
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

// Folds splits the dataset into k folds for cross validation. Fold i is the
// i-th of k nearly equal contiguous chunks.
func (d *Dataset) Folds(k int) []Dataset {
	if k < 1 {
		k = 1
	}
	folds := make([]Dataset, k)
	n := len(d.Examples)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		folds[i].Examples = d.Examples[lo:hi]
	}
	return folds
}

// Without returns a dataset containing every fold except fold i; used as the
// training portion during cross validation.
func Without(folds []Dataset, i int) Dataset {
	var out Dataset
	for j, f := range folds {
		if j != i {
			out.Examples = append(out.Examples, f.Examples...)
		}
	}
	return out
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

// Trainer builds a classifier from a dataset.
type Trainer interface {
	Train(d Dataset) Classifier
}
