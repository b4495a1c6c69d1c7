package classify

import (
	"math"
	"slices"

	"repro/internal/textproc"
)

// Bind returns clf's vocabulary-bound form when it has one — today the linear
// SVM — and clf itself otherwise. vocab is the id space of the token ids the
// bound classifier will be handed (search.ShardedIndex.Vocab).
func Bind(clf Classifier, vocab []string) Classifier {
	if m, ok := clf.(*LinearSVM); ok {
		return m.Bind(vocab)
	}
	return clf
}

// BoundSVM is a LinearSVM laid out for one vocabulary: the weights as a dense
// row-major len(vocab) × len(labels) matrix indexed by token id, so scoring a
// snippet is a walk over its ids with no string, map or allocation in it.
// Vocabulary terms the model never saw are zero rows; model terms outside the
// vocabulary cannot occur in a snippet of that index and are dropped. It is
// immutable and safe for concurrent use.
type BoundSVM struct {
	svm  *LinearSVM
	w    []float64
	bias []float64
}

// Bind lays the model out for vocab.
func (m *LinearSVM) Bind(vocab []string) *BoundSVM {
	nl := len(m.labels)
	b := &BoundSVM{svm: m, w: make([]float64, len(vocab)*nl), bias: make([]float64, nl)}
	for li, label := range m.labels {
		b.bias[li] = m.bias[label]
		weights := m.weights[label]
		for id, term := range vocab {
			b.w[id*nl+li] = weights[term]
		}
	}
	return b
}

// Predict is the unbound model's Predict: the path for snippets that arrive
// as text.
func (b *BoundSVM) Predict(f textproc.Features) string { return b.svm.Predict(f) }

// Scores appends the decision value of every label, in label order, for the
// snippet whose token ids are ids, and returns the extended slice. The
// features are those of textproc.Extract — per distinct term, 1/n added once
// per occurrence, n the number of tokens — taken in order of first occurrence,
// and each label's sum accumulates in that order before its bias is added: a
// fixed order, so equal ids give bit-equal scores, where the map-ordered
// LinearSVM.Predict agrees only to rounding.
func (b *BoundSVM) Scores(ids []int32, dst []float64) []float64 {
	nl := len(b.bias)
	at := len(dst)
	dst = slices.Grow(dst, nl)[:at+nl]
	acc := dst[at:]
	clear(acc)
	n := 0
	for _, id := range ids {
		if id >= 0 {
			n++
		}
	}
	inv := 1.0 / float64(n)
	for i, id := range ids {
		// A snippet is a dozen tokens: a scan for repeats beats any set.
		if id < 0 || slices.Contains(ids[:i], id) {
			continue
		}
		v := inv
		for _, later := range ids[i+1:] {
			if later == id {
				v += inv
			}
		}
		row := b.w[int(id)*nl:][:nl]
		for li, w := range row {
			acc[li] += w * v
		}
	}
	for li, bias := range b.bias {
		acc[li] += bias
	}
	return dst
}

// PredictTerms returns the label with the largest decision value for the
// snippet whose token ids are ids, ties toward the label listed first, as
// LinearSVM.Predict breaks them.
func (b *BoundSVM) PredictTerms(ids []int32) string {
	var buf [16]float64
	best, bestScore := "", math.Inf(-1)
	for li, s := range b.Scores(ids, buf[:0]) {
		if s > bestScore {
			best, bestScore = b.svm.labels[li], s
		}
	}
	return best
}
