package classify

import (
	"math"
	"testing"

	"repro/internal/textproc"
)

// TestBayesPriorCount: the additive smoothing mass is the paper's 1.0 (§6.1).
func TestBayesPriorCount(t *testing.T) {
	if got := (BayesTrainer{}).Train(synthDataset(20, 5)).(*NaiveBayes).Alpha; got != 1 {
		t.Errorf("Alpha = %v, want 1", got)
	}
}

// TestBayesSmoothedEstimate pins the scoring formula on a two-term corpus:
// log P(class) + Σ f(term)·log((count+α)/(classTotal+α·|V|)).
func TestBayesSmoothedEstimate(t *testing.T) {
	d := Dataset{Examples: []Example{example("x", "a"), example("y", "b")}}
	nb := BayesTrainer{}.Train(d).(*NaiveBayes)
	cases := []struct {
		f    textproc.Features
		want map[string]float64
	}{
		{textproc.Features{"x": 1}, map[string]float64{
			"a": math.Log(0.5) + math.Log(2.0/3),
			"b": math.Log(0.5) + math.Log(1.0/3),
		}},
		{textproc.Features{"y": 0.5, "z": 0.5}, map[string]float64{
			"a": math.Log(0.5) + 0.5*math.Log(1.0/3) + 0.5*math.Log(1.0/3),
			"b": math.Log(0.5) + 0.5*math.Log(2.0/3) + 0.5*math.Log(1.0/3),
		}},
	}
	for _, c := range cases {
		got := nb.Scores(c.f)
		for class, want := range c.want {
			if math.Abs(got[class]-want) > 1e-12 {
				t.Errorf("Scores(%v)[%q] = %v, want %v", c.f, class, got[class], want)
			}
		}
	}
}

// TestBayesEmptyFeaturesScoreLogPriors: with no evidence each class scores
// its log prior, and the majority class wins.
func TestBayesEmptyFeaturesScoreLogPriors(t *testing.T) {
	d := Dataset{Examples: []Example{example("x", "a"), example("y", "a"), example("z", "a"), example("x", "b")}}
	nb := BayesTrainer{}.Train(d).(*NaiveBayes)
	scores := nb.Scores(textproc.Features{})
	if scores["a"] != math.Log(0.75) || scores["b"] != math.Log(0.25) {
		t.Errorf("Scores(empty) = %v, want log 0.75 and log 0.25", scores)
	}
	if got := nb.Predict(textproc.Features{}); got != "a" {
		t.Errorf("Predict(empty) = %q, want the majority class a", got)
	}
}

// TestBayesTieBreaksToSmallerLabel: two classes trained on the same snippet
// score bit-equally, and the lexicographically smaller label wins.
func TestBayesTieBreaksToSmallerLabel(t *testing.T) {
	d := Dataset{Examples: []Example{example("x", "zeta"), example("x", "alpha")}}
	nb := BayesTrainer{}.Train(d)
	for i := 0; i < 20; i++ {
		if got := nb.Predict(textproc.Features{"x": 1}); got != "alpha" {
			t.Fatalf("call %d: Predict = %q, want alpha", i, got)
		}
	}
}
