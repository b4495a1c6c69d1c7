package classify

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/pool"
	"repro/internal/textproc"
)

// LinearSVMTrainer trains a one-vs-rest linear SVM with the Pegasos
// stochastic sub-gradient solver (Shalev-Shwartz et al.). It is the workhorse
// classifier for the large snippet corpora of Table 2: text classification
// with tens of thousands of snippets is where linear SVMs match kernel SVMs
// while training orders of magnitude faster.
type LinearSVMTrainer struct {
	// Epochs is the number of passes over the data; 0 selects 18.
	Epochs int
	// Seed drives the example sampling order; training is deterministic
	// for a fixed seed.
	Seed int64
}

// lambda is the Pegasos regularization strength.
const lambda = 2e-5

// Train fits one binary SVM per label, the labels on the pool, and returns
// the multiclass model. Each label's run reads the dataset only and is seeded
// by its label, so the model is the same on any schedule.
func (t LinearSVMTrainer) Train(d Dataset) Classifier {
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 18
	}
	labels := d.Labels()
	vocab, xs := flattenFeatures(d)
	weights, bias := make([]map[string]float64, len(labels)), make([]float64, len(labels))
	_ = pool.Run(context.Background(), min(runtime.GOMAXPROCS(0), len(labels)), len(labels), func(i int) {
		weights[i], bias[i] = trainPegasos(d, vocab, xs, labels[i], epochs, t.Seed)
	}) // Background is never done, so Run cannot fail
	model := &LinearSVM{weights: make(map[string]map[string]float64, len(labels)), bias: make(map[string]float64, len(labels)), labels: labels}
	for i, label := range labels {
		model.weights[label], model.bias[label] = weights[i], bias[i]
	}
	return model
}

// feature is an example's term, as its id in the training vocabulary, and value.
type feature struct {
	id int32
	v  float64
}

// flattenFeatures returns the dataset's sorted vocabulary and every example's
// features as ids into it, in term order — the order a margin is summed in.
func flattenFeatures(d Dataset) (vocab []string, xs [][]feature) {
	for _, ex := range d.Examples {
		for term := range ex.Features {
			vocab = append(vocab, term)
		}
	}
	slices.Sort(vocab)
	vocab = slices.Compact(vocab)
	xs = make([][]feature, len(d.Examples))
	for i, ex := range d.Examples {
		for _, term := range ex.Features.Terms() {
			id, _ := slices.BinarySearch(vocab, term)
			xs[i] = append(xs[i], feature{int32(id), ex.Features[term]})
		}
	}
	return vocab, xs
}

// trainPegasos fits a binary hinge-loss SVM separating examples labelled
// `positive` (y=+1) from all others (y=-1), over xs, the examples' features
// flattened into vocab. Sampling is class-balanced: a third of the draws come
// from the positive class regardless of its share of the dataset, which keeps
// the one-vs-rest machines usable when one label is a small fraction of a
// many-class corpus. The weights are dense; the returned map holds every term
// an update touched.
func trainPegasos(d Dataset, vocab []string, xs [][]feature, positive string, epochs int, seed int64) (map[string]float64, float64) {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(positive))))
	n := len(d.Examples)
	if n == 0 {
		return map[string]float64{}, 0
	}
	var posIdx []int
	for i, ex := range d.Examples {
		if ex.Label == positive {
			posIdx = append(posIdx, i)
		}
	}
	w := make([]float64, len(vocab))
	touched := make([]bool, len(vocab))
	var bias float64
	scale := 1.0
	step := 0
	for epoch := 0; epoch < epochs; epoch++ {
		for i := 0; i < n; i++ {
			step++
			e := 0
			if len(posIdx) > 0 && rng.Float64() < 1.0/3 {
				e = posIdx[rng.Intn(len(posIdx))]
			} else {
				e = rng.Intn(n)
			}
			y := -1.0
			if d.Examples[e].Label == positive {
				y = 1.0
			}
			eta := 1.0 / (lambda * float64(step))
			// Decay the regularization multiplicatively via the
			// scale factor so the sparse update stays O(nnz).
			scale *= 1 - eta*lambda
			if scale < 1e-9 {
				// Fold the scale into the weights to avoid
				// underflow on long runs.
				for k := range w {
					w[k] *= scale
				}
				scale = 1.0
			}
			margin := bias
			for _, f := range xs[e] {
				margin += w[f.id] * f.v * scale
			}
			if y*margin < 1 {
				inv := eta * y / scale
				for _, f := range xs[e] {
					w[f.id] += inv * f.v
					touched[f.id] = true
				}
				bias += eta * y * 0.01
			}
		}
	}
	out := map[string]float64{}
	for k, ok := range touched {
		if ok {
			out[vocab[k]] = w[k] * scale
		}
	}
	return out, bias
}

// LinearSVM is a trained one-vs-rest linear SVM.
type LinearSVM struct {
	weights map[string]map[string]float64
	bias    map[string]float64
	labels  []string

	// Prediction-time inverted view, built lazily on first Predict: the
	// label-major weight maps transposed to term-major rows, so scoring a
	// snippet costs one map lookup per feature term instead of one per
	// (term, label) pair. Read-only once built; safe for concurrent
	// Predict calls.
	pidxOnce sync.Once
	pidx     *predictIndex
}

// predictIndex is the term-major transpose of the weight vectors.
type predictIndex struct {
	inv  map[string][]float64 // term -> weight per label, in labels order
	bias []float64            // per label, in labels order
}

func (m *LinearSVM) predictIndex() *predictIndex {
	m.pidxOnce.Do(func() {
		nl := len(m.labels)
		inv := map[string][]float64{}
		bias := make([]float64, nl)
		for li, label := range m.labels {
			bias[li] = m.bias[label]
			for term, w := range m.weights[label] {
				row := inv[term]
				if row == nil {
					row = make([]float64, nl)
					inv[term] = row
				}
				row[li] = w
			}
		}
		m.pidx = &predictIndex{inv: inv, bias: bias}
	})
	return m.pidx
}

// Scores returns the signed decision values per label.
func (m *LinearSVM) Scores(f textproc.Features) map[string]float64 {
	scores := make(map[string]float64, len(m.labels))
	for _, label := range m.labels {
		w := m.weights[label]
		s := m.bias[label]
		for term, v := range f {
			s += w[term] * v
		}
		scores[label] = s
	}
	return scores
}

// Predict returns the label with the largest decision value; ties break
// toward the label listed first (the lexicographically smaller one — labels
// are sorted). It scores through the term-major inverted view: equivalent to
// argmax over Scores, at one map lookup per feature term, with the label
// accumulators on the stack.
func (m *LinearSVM) Predict(f textproc.Features) string {
	pi := m.predictIndex()
	var accBuf [16]float64
	acc := accBuf[:0]
	if len(m.labels) > len(accBuf) {
		acc = make([]float64, len(m.labels))
	} else {
		acc = accBuf[:len(m.labels)]
		clear(acc)
	}
	for term, v := range f {
		if row, ok := pi.inv[term]; ok {
			for i, w := range row {
				acc[i] += w * v
			}
		}
	}
	best, bestScore := "", math.Inf(-1)
	for i, label := range m.labels {
		if s := acc[i] + pi.bias[i]; s > bestScore {
			best, bestScore = label, s
		}
	}
	return best
}

// hashString is the FNV-1a hash, used to derive per-label RNG streams.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
