package classify

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/textproc"
)

// boundFixture trains an SVM on bayesDataset — unequal, non-dyadic snippet
// frequencies, so sums depend on their order — and binds it to a vocabulary
// holding the model's terms plus terms it never saw.
func boundFixture() (*LinearSVM, *BoundSVM, []string) {
	svm := LinearSVMTrainer{Seed: 5}.Train(bayesDataset()).(*LinearSVM)
	vocab := []string{"unseen", "zebra", "aardvark"}
	for _, label := range svm.labels {
		for term := range svm.weights[label] {
			vocab = append(vocab, term)
		}
	}
	slices.Sort(vocab)
	vocab = slices.Compact(vocab)
	return svm, svm.Bind(vocab), vocab
}

// randomSnippet draws n token slots over vocab: the ids as a search hit would
// carry them (-1 for a word without a token) and the text they stand for
// ("the" normalises to nothing; vocab holds stems that stem to themselves).
func randomSnippet(rng *rand.Rand, vocab []string, n int) ([]int32, string) {
	ids := make([]int32, n)
	words := make([]string, n)
	for i := range ids {
		if rng.Intn(4) == 0 {
			ids[i], words[i] = -1, "the"
			continue
		}
		ids[i] = int32(rng.Intn(len(vocab)))
		words[i] = vocab[ids[i]]
	}
	return ids, strings.Join(words, " ")
}

// TestTermsMatchExtract is the classify half of the id-path differential: for
// random id vectors — repeats, token-less words, unseen terms, empty and
// all-stop-word snippets — the bound model's decision values are those of the
// unbound model on textproc.Extract of the same snippet to within rounding
// (the unbound sums run in map order), and the labels agree.
func TestTermsMatchExtract(t *testing.T) {
	svm, bound, vocab := boundFixture()
	for _, term := range vocab {
		if got := textproc.NormalizeTokens(term); len(got) != 1 || got[0] != term {
			t.Fatalf("fixture: vocabulary term %q normalises to %q", term, got)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		ids, text := randomSnippet(rng, vocab, rng.Intn(14))
		f := textproc.Extract(text)
		want := svm.Scores(f)
		got := bound.Scores(ids, nil)
		for li, label := range svm.labels {
			if math.Abs(got[li]-want[label]) > 1e-12 {
				t.Fatalf("snippet %q: label %q scores %v bound, %v unbound", text, label, got[li], want[label])
			}
		}
		if gotLabel, wantLabel := bound.PredictTerms(ids), svm.Predict(f); gotLabel != wantLabel {
			// Only a tie within rounding may fall either way.
			if math.Abs(want[gotLabel]-want[wantLabel]) > 1e-12 {
				t.Fatalf("snippet %q: bound predicts %q, unbound %q (%v)", text, gotLabel, wantLabel, want)
			}
		}
		if bound.Predict(f) != svm.Predict(f) && math.Abs(want[bound.Predict(f)]-want[svm.Predict(f)]) > 1e-12 {
			t.Fatalf("snippet %q: the text adapter disagrees with the model it wraps", text)
		}
	}
}

// TestBoundSVMDeterministic: repeated calls on one model and id vector give
// bit-equal decision values and one label — the id path sums in snippet order,
// not map order — and they do not allocate.
func TestBoundSVMDeterministic(t *testing.T) {
	_, bound, vocab := boundFixture()
	ids, _ := randomSnippet(rand.New(rand.NewSource(11)), vocab, 13)
	ref := bound.Scores(ids, nil)
	label := bound.PredictTerms(ids)
	for call := 0; call < 50; call++ {
		for li, s := range bound.Scores(ids, nil) {
			if math.Float64bits(s) != math.Float64bits(ref[li]) {
				t.Fatalf("Scores call %d: label %d scored %v, first call %v", call, li, s, ref[li])
			}
		}
		if got := bound.PredictTerms(ids); got != label {
			t.Fatalf("PredictTerms call %d: %q, first call %q", call, got, label)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { bound.PredictTerms(ids) }); allocs != 0 {
		t.Errorf("PredictTerms allocates %v times per snippet", allocs)
	}
}

// TestBindLeavesOthersAlone: a classifier without a bound form comes back from
// Bind unchanged, and the SVM comes back as a TermClassifier.
func TestBindLeavesOthersAlone(t *testing.T) {
	nb := BayesTrainer{}.Train(bayesDataset())
	if got := Bind(nb, []string{"museum"}); got != nb {
		t.Errorf("Bind(NaiveBayes) = %T, want the classifier itself", got)
	}
	svm, _, vocab := boundFixture()
	if _, ok := Bind(svm, vocab).(TermClassifier); !ok {
		t.Error("Bind(LinearSVM) is no TermClassifier")
	}
}
