package classify

import (
	"math"

	"repro/internal/textproc"
)

// BayesTrainer trains a multinomial Naive Bayes classifier. The additive
// smoothing mass per (term, class) pair is 1.0 and length normalization is
// off, as the paper sets them (§6.1): raw normalized frequencies are scored
// without rescaling by snippet length.
type BayesTrainer struct{}

// Train builds the classifier.
func (t BayesTrainer) Train(d Dataset) Classifier {
	nb := &NaiveBayes{
		Alpha:      1.0,
		classCount: map[string]float64{},
		termCount:  map[string]map[string]float64{},
		classTotal: map[string]float64{},
		vocab:      map[string]struct{}{},
	}
	for _, ex := range d.Examples {
		nb.classCount[ex.Label]++
		tc := nb.termCount[ex.Label]
		if tc == nil {
			tc = map[string]float64{}
			nb.termCount[ex.Label] = tc
		}
		// Sorted order: classTotal is one float sum across terms, and equal
		// datasets must train to bit-equal models.
		for _, term := range ex.Features.Terms() {
			v := ex.Features[term]
			tc[term] += v
			nb.classTotal[ex.Label] += v
			nb.vocab[term] = struct{}{}
		}
	}
	nb.total = float64(len(d.Examples))
	return nb
}

// NaiveBayes is a trained multinomial Naive Bayes model over sparse
// normalized-frequency features.
type NaiveBayes struct {
	Alpha      float64
	classCount map[string]float64
	termCount  map[string]map[string]float64
	classTotal map[string]float64
	vocab      map[string]struct{}
	total      float64
}

// Scores returns the per-class log-probability scores for f, summing its
// terms in sorted order so equal inputs score bit-equally.
func (nb *NaiveBayes) Scores(f textproc.Features) map[string]float64 {
	terms := f.Terms()
	v := float64(len(nb.vocab))
	scores := make(map[string]float64, len(nb.classCount))
	for class, count := range nb.classCount {
		score := math.Log(count / nb.total)
		tc := nb.termCount[class]
		denom := nb.classTotal[class] + nb.Alpha*v
		for _, term := range terms {
			score += f[term] * math.Log((tc[term]+nb.Alpha)/denom)
		}
		scores[class] = score
	}
	return scores
}

// Predict returns the class with the highest posterior score; ties break
// toward the lexicographically smaller label for determinism.
func (nb *NaiveBayes) Predict(f textproc.Features) string {
	scores := nb.Scores(f)
	best, bestScore := "", math.Inf(-1)
	for class, s := range scores {
		if s > bestScore || (s == bestScore && (best == "" || class < best)) {
			best, bestScore = class, s
		}
	}
	return best
}
