package classify

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/codec"
)

// Classifier persistence: a compact versioned binary snapshot of a trained
// model, so a service booted from a prebuilt artifact skips the training
// corpus entirely (the two heavy artifacts — search index, gazetteer —
// already persist; this closes the last rebuild-at-boot gap). Format
// (little-endian):
//
//	magic "TCLF" | version u32 | kind (len-prefixed string: "svm" | "bayes")
//	svm payload:   labelCount u32, then per label (sorted): label str,
//	    bias f64, termCount u32, then per term (sorted): term str, weight f64
//	bayes payload: alpha f64, total f64, classCount u32, then per class
//	    (sorted): class str, count f64, classTotal f64, termCount u32,
//	    then per term (sorted): term str, count f64
//
// Every map is written in sorted key order, so snapshots of the same model
// are byte-reproducible. Floats round-trip exactly via their IEEE 754 bits.
// The reader bounds every count by the bytes that remain, so a truncated or
// corrupt stream returns an error instead of panicking or allocating
// unboundedly.

const (
	clfMagic   = "TCLF"
	clfVersion = 1

	// clfKindSVM / clfKindBayes tag the payload that follows the header.
	clfKindSVM   = "svm"
	clfKindBayes = "bayes"

	// Least bytes per record, for the codec's count rule: a term is its
	// string length and an f64; an SVM label adds bias and term count to its
	// string length, a Bayes class two f64s and the term count.
	minTermRecord  = 4 + 8
	minLabelRecord = 4 + 8 + 4
	minClassRecord = 4 + 8 + 8 + 4
)

// appendHeader appends magic, version and the model kind.
func appendHeader(b []byte, kind string) []byte {
	return codec.AppendStr(codec.AppendHeader(b, clfMagic, clfVersion), kind)
}

// appendFloatMap appends m as termCount followed by sorted (term, value)
// pairs.
func appendFloatMap(b []byte, m map[string]float64) []byte {
	terms := make([]string, 0, len(m))
	for t := range m {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	b = codec.AppendU32(b, uint32(len(terms)))
	for _, t := range terms {
		b = codec.AppendF64(codec.AppendStr(b, t), m[t])
	}
	return b
}

// AppendTo appends the trained SVM's version-1 TCLF stream to b.
func (m *LinearSVM) AppendTo(b []byte) []byte {
	b = appendHeader(b, clfKindSVM)
	b = codec.AppendU32(b, uint32(len(m.labels)))
	// m.labels is already sorted (Dataset.Labels); keep its order so the
	// written stream matches prediction tie-break order exactly.
	for _, label := range m.labels {
		b = codec.AppendF64(codec.AppendStr(b, label), m.bias[label])
		b = appendFloatMap(b, m.weights[label])
	}
	return b
}

// AppendTo appends the trained Naive Bayes model's version-1 TCLF stream to
// b.
func (nb *NaiveBayes) AppendTo(b []byte) []byte {
	classes := make([]string, 0, len(nb.classCount))
	for c := range nb.classCount {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	b = appendHeader(b, clfKindBayes)
	b = codec.AppendF64(b, nb.Alpha)
	b = codec.AppendF64(b, nb.total)
	b = codec.AppendU32(b, uint32(len(classes)))
	for _, class := range classes {
		b = codec.AppendStr(b, class)
		b = codec.AppendF64(b, nb.classCount[class])
		b = codec.AppendF64(b, nb.classTotal[class])
		b = appendFloatMap(b, nb.termCount[class])
	}
	return b
}

// AppendClassifier appends c's TCLF stream to b, dispatching on the concrete
// model behind the Classifier interface; it fails for models without a
// persistence format.
func AppendClassifier(b []byte, c Classifier) ([]byte, error) {
	switch m := c.(type) {
	case *LinearSVM:
		return m.AppendTo(b), nil
	case *NaiveBayes:
		return m.AppendTo(b), nil
	}
	return b, fmt.Errorf("classify: %T has no persistence format", c)
}

// WriteClassifier writes c's TCLF stream to w in one Write and returns the
// byte count w accepted.
func WriteClassifier(w io.Writer, c Classifier) (int64, error) {
	b, err := AppendClassifier(nil, c)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// readFloatMap reads a termCount-prefixed (term, value) map.
func readFloatMap(br *codec.Reader) map[string]float64 {
	n := br.Count("term", minTermRecord)
	m := make(map[string]float64, n)
	for i := 0; i < n && br.Err() == nil; i++ {
		term := br.Str()
		m[term] = br.F64()
	}
	return m
}

// ReadClassifier loads the TCLF stream data (written by WriteClassifier, held
// in memory by the caller). The result predicts identically to the model that
// was written. A truncated or corrupt stream returns an error, never a panic.
func ReadClassifier(data []byte) (Classifier, error) {
	br := codec.NewReader("classify: corrupt model", data)
	if err := br.Header(clfMagic, clfVersion); err != nil {
		return nil, err
	}
	var c Classifier
	switch kind := br.Str(); kind {
	case clfKindSVM:
		c = readSVM(br)
	case clfKindBayes:
		c = readBayes(br)
	default:
		br.Corrupt("unknown model kind %q", kind)
	}
	if err := br.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

func readSVM(br *codec.Reader) *LinearSVM {
	n := br.Count("label", minLabelRecord)
	m := &LinearSVM{
		weights: make(map[string]map[string]float64, n),
		bias:    make(map[string]float64, n),
		labels:  make([]string, 0, n),
	}
	for i := 0; i < n && br.Err() == nil; i++ {
		label := br.Str()
		if _, dup := m.bias[label]; dup {
			br.Corrupt("duplicate label %q", label)
		}
		m.labels = append(m.labels, label)
		m.bias[label] = br.F64()
		m.weights[label] = readFloatMap(br)
	}
	// Prediction tie-breaks assume sorted label order; a stream that lost
	// it is corrupt.
	if !sort.StringsAreSorted(m.labels) {
		br.Corrupt("labels out of order")
	}
	return m
}

func readBayes(br *codec.Reader) *NaiveBayes {
	alpha, total := br.F64(), br.F64()
	n := br.Count("class", minClassRecord)
	nb := &NaiveBayes{
		Alpha:      alpha,
		total:      total,
		classCount: make(map[string]float64, n),
		termCount:  make(map[string]map[string]float64, n),
		classTotal: make(map[string]float64, n),
		vocab:      map[string]struct{}{},
	}
	for i := 0; i < n && br.Err() == nil; i++ {
		class := br.Str()
		if _, dup := nb.classCount[class]; dup {
			br.Corrupt("duplicate class %q", class)
		}
		nb.classCount[class] = br.F64()
		nb.classTotal[class] = br.F64()
		tc := readFloatMap(br)
		nb.termCount[class] = tc
		// The training loop only ever adds a term to the vocabulary when
		// it lands in some class's term counts, so the union reconstructs
		// the vocabulary exactly.
		for term := range tc {
			nb.vocab[term] = struct{}{}
		}
	}
	return nb
}
