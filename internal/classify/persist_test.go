package classify

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/textproc"
)

// persistDataset builds a small deterministic labelled corpus exercising
// shared and label-specific vocabulary.
func persistDataset() Dataset {
	var d Dataset
	rng := rand.New(rand.NewSource(7))
	words := []string{"museum", "art", "exhibit", "menu", "chef", "dinner",
		"school", "campus", "students", "hotel", "rooms", "lobby", "the", "in", "city"}
	labels := []string{"museum", "restaurant", "school", "hotel"}
	for i := 0; i < 120; i++ {
		label := labels[i%len(labels)]
		var sb strings.Builder
		sb.WriteString(label)
		for j := 0; j < 6; j++ {
			sb.WriteByte(' ')
			sb.WriteString(words[rng.Intn(len(words))])
		}
		d.Add(sb.String(), label)
	}
	return d
}

// testFeatures extracts feature vectors the round-trip tests predict on,
// including vocabulary the models never saw.
func persistFeatures() []textproc.Features {
	texts := []string{
		"the museum exhibit in the city",
		"dinner menu by the chef",
		"campus with students and a lobby",
		"unseen vocabulary entirely zebra quark",
		"",
		"hotel rooms art school",
	}
	out := make([]textproc.Features, len(texts))
	for i, s := range texts {
		out[i] = textproc.Extract(s)
	}
	return out
}

// TestClassifierRoundTrip writes each model kind, reads it back and requires
// (a) the exact internal state (floats round-trip via their bits) and (b)
// identical predictions and scores on held-out feature vectors.
func TestClassifierRoundTrip(t *testing.T) {
	d := persistDataset()
	models := map[string]Classifier{
		"svm":   LinearSVMTrainer{Epochs: 4, Seed: 11}.Train(d),
		"bayes": BayesTrainer{}.Train(d),
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := WriteClassifier(&buf, model)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Errorf("WriteClassifier reported %d bytes, wrote %d", n, buf.Len())
			}
			got, err := ReadClassifier(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			switch want := model.(type) {
			case *LinearSVM:
				g, ok := got.(*LinearSVM)
				if !ok {
					t.Fatalf("reloaded kind = %T, want *LinearSVM", got)
				}
				if !reflect.DeepEqual(g.labels, want.labels) ||
					!reflect.DeepEqual(g.bias, want.bias) ||
					!reflect.DeepEqual(g.weights, want.weights) {
					t.Error("reloaded SVM state differs from the written model")
				}
			case *NaiveBayes:
				g, ok := got.(*NaiveBayes)
				if !ok {
					t.Fatalf("reloaded kind = %T, want *NaiveBayes", got)
				}
				if !reflect.DeepEqual(g, want) {
					t.Error("reloaded Bayes state differs from the written model")
				}
			}
			for i, f := range persistFeatures() {
				if g, w := got.Predict(f), model.Predict(f); g != w {
					t.Errorf("feature %d: reloaded predicts %q, original %q", i, g, w)
				}
			}
			// A second write of the reloaded model must reproduce the
			// stream byte-for-byte (deterministic sorted encoding).
			var again bytes.Buffer
			if _, err := WriteClassifier(&again, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Error("re-serialised model is not byte-identical")
			}
		})
	}
}

// failAfter is an io.Writer that accepts n bytes then fails, driving every
// write-error return in the TCLF writers.
type failAfter struct {
	n int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("failAfter: write refused")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteClassifierPropagatesErrors sweeps the write-failure point across
// both model streams: every short write must surface an error.
func TestWriteClassifierPropagatesErrors(t *testing.T) {
	d := persistDataset()
	for name, model := range map[string]Classifier{
		"svm":   LinearSVMTrainer{Epochs: 2, Seed: 11}.Train(d),
		"bayes": BayesTrainer{}.Train(d),
	} {
		var buf bytes.Buffer
		if _, err := WriteClassifier(&buf, model); err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < buf.Len(); cut += 5 {
			if _, err := WriteClassifier(&failAfter{n: cut}, model); err == nil {
				t.Fatalf("%s: write failure at byte %d reported success", name, cut)
			}
		}
	}
}

// TestReadClassifierTruncationSweep: every proper prefix of a TCLF stream
// must be rejected — no prefix may load and none may panic.
func TestReadClassifierTruncationSweep(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteClassifier(&buf, BayesTrainer{}.Train(persistDataset())); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadClassifier(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(data))
		}
	}
}

// formatless is a classifier with no persistence format.
type formatless struct{}

func (formatless) Predict(textproc.Features) string { return "" }

// TestWriteClassifierUnsupported: models without a persistence format fail
// loudly instead of writing a stream no reader understands.
func TestWriteClassifierUnsupported(t *testing.T) {
	if _, err := WriteClassifier(&bytes.Buffer{}, formatless{}); err == nil {
		t.Error("WriteClassifier accepted a model without a format")
	}
}

// TestReadClassifierCorrupt: truncations and header corruptions of both model
// kinds return errors, never panic.
func TestReadClassifierCorrupt(t *testing.T) {
	d := persistDataset()
	for name, model := range map[string]Classifier{
		"svm":   LinearSVMTrainer{Epochs: 2, Seed: 3}.Train(d),
		"bayes": BayesTrainer{}.Train(d),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := WriteClassifier(&buf, model); err != nil {
				t.Fatal(err)
			}
			valid := buf.Bytes()

			// Every prefix of the header region plus a spread of payload
			// truncations must error.
			for cut := 0; cut < len(valid); cut += 1 + cut/16 {
				if _, err := ReadClassifier(valid[:cut]); err == nil {
					t.Errorf("truncation at %d/%d bytes read successfully", cut, len(valid))
				}
			}

			mutations := []struct {
				name   string
				mutate func(b []byte)
			}{
				{"bad magic", func(b []byte) { b[0] = 'X' }},
				{"bad version", func(b []byte) { b[4] = 0xEE }},
				{"bad kind length", func(b []byte) { b[8] = 0xFF; b[9] = 0xFF; b[10] = 0xFF }},
				{"huge count", func(b []byte) {
					// The label/class count claims 2^31 entries; the
					// reader must bound it. It sits right after the kind
					// string for the SVM, and after the two f64s
					// (alpha, total) for Bayes.
					off := 12 + int(b[8])
					if name == "bayes" {
						off += 16
					}
					b[off], b[off+1], b[off+2], b[off+3] = 0xFF, 0xFF, 0xFF, 0x7F
				}},
			}
			for _, m := range mutations {
				t.Run(m.name, func(t *testing.T) {
					mutated := append([]byte(nil), valid...)
					m.mutate(mutated)
					if _, err := ReadClassifier(mutated); err == nil {
						t.Error("corrupt stream read successfully")
					}
				})
			}
		})
	}
}

// FuzzReadClassifier: arbitrary bytes must never panic the reader, and any
// stream it accepts must predict without panicking.
func FuzzReadClassifier(f *testing.F) {
	d := persistDataset()
	for _, model := range []Classifier{
		LinearSVMTrainer{Epochs: 1, Seed: 5}.Train(d),
		BayesTrainer{}.Train(d),
	} {
		var buf bytes.Buffer
		if _, err := WriteClassifier(&buf, model); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte("TCLF"))
	f.Add([]byte{})
	for _, lie := range termCountLies() {
		f.Add(lie)
	}
	features := textproc.Extract("museum dinner campus")
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadClassifier(data)
		if err != nil {
			return
		}
		// Accepted models must be usable.
		_ = c.Predict(features)
	})
}

// TestTCLFBytesLocked pins the format: the sha256 of one SVM's TCLF stream,
// recorded from the bufio + binary.Write writer (commit 2fd69de) before the
// shared codec replaced it.
func TestTCLFBytesLocked(t *testing.T) {
	model := LinearSVMTrainer{Epochs: 1, Seed: 5}.Train(persistDataset()).(*LinearSVM)
	sum := sha256.Sum256(model.AppendTo(nil))
	const want = "aa72eefc35df819e34fea824b5af48f5298dab445cadd376589eb7ad15135e43"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("sha256 %s, recorded %s", got, want)
	}
}

// termCountLies are the smallest streams of each kind whose one label or
// class claims 1<<22 terms and ends there (36 and 62 bytes).
func termCountLies() map[string][]byte {
	svm := codec.AppendU32(appendHeader(nil, clfKindSVM), 1)
	svm = codec.AppendF64(codec.AppendStr(svm, "a"), 0)
	bayes := codec.AppendF64(codec.AppendF64(appendHeader(nil, clfKindBayes), 1), 1)
	bayes = codec.AppendStr(codec.AppendU32(bayes, 1), "a")
	bayes = codec.AppendF64(codec.AppendF64(bayes, 1), 1)
	return map[string][]byte{
		"svm":   codec.AppendU32(svm, 1<<22),
		"bayes": codec.AppendU32(bayes, 1<<22),
	}
}

// TestReadClassifierRejectsCountLieCheaply: a term count the remaining bytes
// cannot hold is refused before the term map is sized from it. 1<<22 passed
// the former fixed cap and cost 213 MB on the 36-byte SVM stream.
func TestReadClassifierRejectsCountLieCheaply(t *testing.T) {
	for name, lie := range termCountLies() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadClassifier(lie)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "term count") {
			t.Fatalf("%s: err = %v, want a term count rejection", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", name, len(lie), got)
		}
	}
}

// svmStream is the TCLF stream of an SVM with the given labels, each with a
// zero bias and no terms.
func svmStream(labels ...string) []byte {
	b := codec.AppendU32(appendHeader(nil, clfKindSVM), uint32(len(labels)))
	for _, label := range labels {
		b = codec.AppendU32(codec.AppendF64(codec.AppendStr(b, label), 0), 0)
	}
	return b
}

func TestReadClassifierRejectsDuplicateLabel(t *testing.T) {
	if _, err := ReadClassifier(svmStream("a", "b")); err != nil {
		t.Fatalf("well-formed stream: %v", err)
	}
	if _, err := ReadClassifier(svmStream("a", "a")); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Errorf("err = %v, want a duplicate label rejection", err)
	}
}

// TestReadClassifierRejectsUnsortedLabels: prediction tie-breaks rely on
// sorted labels, so a stream that lists them out of order is refused.
func TestReadClassifierRejectsUnsortedLabels(t *testing.T) {
	if _, err := ReadClassifier(svmStream("b", "a")); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("err = %v, want a label order rejection", err)
	}
}

func TestReadClassifierRejectsDuplicateClass(t *testing.T) {
	b := codec.AppendF64(codec.AppendF64(appendHeader(nil, clfKindBayes), 1), 2)
	b = codec.AppendU32(b, 2)
	for i := 0; i < 2; i++ {
		b = codec.AppendU32(codec.AppendF64(codec.AppendF64(codec.AppendStr(b, "a"), 1), 0), 0)
	}
	if _, err := ReadClassifier(b); err == nil || !strings.Contains(err.Error(), "duplicate class") {
		t.Errorf("err = %v, want a duplicate class rejection", err)
	}
}

func TestReadClassifierRejectsTrailingBytes(t *testing.T) {
	data := BayesTrainer{}.Train(persistDataset()).(*NaiveBayes).AppendTo(nil)
	if _, err := ReadClassifier(append(data, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("err = %v, want a trailing bytes rejection", err)
	}
}

// TestBayesDeterministic: training twice on one dataset serialises to equal
// bytes, and repeated Scores calls on one model and input are bit-equal —
// neither may depend on map iteration order.
func TestBayesDeterministic(t *testing.T) {
	d := bayesDataset()
	first := BayesTrainer{}.Train(d).(*NaiveBayes)
	want := first.AppendTo(nil)
	for i := 0; i < 9; i++ {
		if got := (BayesTrainer{}).Train(d).(*NaiveBayes).AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("retrain %d serialised to different bytes", i)
		}
	}
	f := d.Examples[0].Features
	ref := first.Scores(f)
	for i := 0; i < 50; i++ {
		for class, s := range first.Scores(f) {
			if math.Float64bits(s) != math.Float64bits(ref[class]) {
				t.Fatalf("Scores call %d: class %q scored %v, first call %v", i, class, s, ref[class])
			}
		}
	}
}

// bayesDataset is a corpus whose snippets draw 7 to 13 words from a small
// vocabulary, so a snippet's normalized frequencies are unequal and not
// dyadic and a sum over them depends on the order of its terms
// (persistDataset's sums happen to be exact).
func bayesDataset() Dataset {
	var d Dataset
	rng := rand.New(rand.NewSource(3))
	words := []string{"museum", "art", "exhibit", "menu", "chef", "dinner", "school", "campus", "students"}
	labels := []string{"museum", "restaurant", "school"}
	for i := 0; i < 60; i++ {
		var sb strings.Builder
		for j, n := 0, 7+rng.Intn(7); j < n; j++ {
			sb.WriteByte(' ')
			sb.WriteString(words[rng.Intn(len(words))])
		}
		d.Add(sb.String(), labels[i%len(labels)])
	}
	return d
}
