package textproc

import "sort"

// Features maps a (stemmed) token to its normalized frequency in a snippet:
// the number of occurrences divided by the snippet length in tokens, exactly
// the feature representation of §5.2.1.
type Features map[string]float64

// Extract computes the feature map for a snippet, in storage of its own: a
// fresh Extractor's Extract.
func Extract(snippet string) Features {
	return new(Extractor).Extract(snippet)
}

// Extractor computes snippet feature maps while reusing its token and map
// storage across calls — the steady-state classification hot path of the
// annotation pipeline extracts features from ten snippets per cell query,
// and per-snippet allocations dominate its cost. The returned Features is
// valid only until the next Extract call, and callers that retain feature
// maps (training corpora, cluster decisions) must use the plain Extract.
// An Extractor is not safe for concurrent use; pool one per worker.
type Extractor struct {
	toks []string
	f    Features
}

// Extract returns the same features as the package-level Extract, built in
// the extractor's reused storage.
func (e *Extractor) Extract(snippet string) Features {
	if e.f == nil {
		e.f = make(Features, 16)
	} else {
		clear(e.f)
	}
	e.toks = appendNormalized(e.toks[:0], snippet)
	if len(e.toks) == 0 {
		return e.f
	}
	inv := 1.0 / float64(len(e.toks))
	for _, t := range e.toks {
		e.f[t] += inv
	}
	return e.f
}

// Terms returns the feature terms in sorted order, for deterministic
// iteration in training and tests.
func (f Features) Terms() []string {
	terms := make([]string, 0, len(f))
	for t := range f {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}

// Dot computes the inner product of two sparse feature vectors.
func (f Features) Dot(g Features) float64 {
	a, b := f, g
	if len(b) < len(a) {
		a, b = b, a
	}
	var sum float64
	for t, v := range a {
		if w, ok := b[t]; ok {
			sum += v * w
		}
	}
	return sum
}

// Norm2 returns the squared Euclidean norm of the feature vector.
func (f Features) Norm2() float64 {
	var sum float64
	for _, v := range f {
		sum += v * v
	}
	return sum
}
