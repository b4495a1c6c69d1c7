package classify

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/textproc"
)

// byTerm predicts the label mapped to the smallest term of the features it
// knows, or "" when it knows none.
type byTerm map[string]string

func (c byTerm) Predict(f textproc.Features) string {
	for _, term := range f.Terms() {
		if label, ok := c[term]; ok {
			return label
		}
	}
	return ""
}

func example(term, label string) Example {
	return Example{Features: textproc.Features{term: 1}, Label: label}
}

// TestEvaluateCounts checks Evaluate's one-vs-rest counters on a hand-made
// confusion: a→a, a→b, b→b, c→a.
func TestEvaluateCounts(t *testing.T) {
	c := byTerm{"pa": "a", "pb": "b"}
	test := Dataset{Examples: []Example{
		example("pa", "a"),
		example("pb", "a"),
		example("pb", "b"),
		example("pa", "c"),
	}}
	acc, perLabel := Evaluate(c, test)
	if acc != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", acc)
	}
	want := map[string]Metrics{
		"a": {Correct: 1, Annotated: 2, Truth: 2},
		"b": {Correct: 1, Annotated: 2, Truth: 1},
		"c": {Correct: 0, Annotated: 0, Truth: 1},
	}
	if len(perLabel) != len(want) {
		t.Fatalf("per-label metrics = %v, want %v", perLabel, want)
	}
	for label, m := range want {
		if perLabel[label] != m {
			t.Errorf("metrics[%q] = %+v, want %+v", label, perLabel[label], m)
		}
	}
	if got, want := MacroF1(perLabel), (0.5+2.0/3)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("MacroF1 = %v, want %v", got, want)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	acc, perLabel := Evaluate(byTerm{}, Dataset{})
	if acc != 0 || len(perLabel) != 0 {
		t.Errorf("Evaluate(empty) = %v, %v; want 0 and no labels", acc, perLabel)
	}
	if MacroF1(perLabel) != 0 {
		t.Errorf("MacroF1 of no labels = %v, want 0", MacroF1(perLabel))
	}
}

// TestEvaluateAccuracyIsMicroPrecision: a classifier that always answers with
// some label annotates every example once, so summed C/A is the accuracy.
func TestEvaluateAccuracyIsMicroPrecision(t *testing.T) {
	d := synthDataset(80, 37)
	acc, perLabel := Evaluate(BayesTrainer{}.Train(d), d)
	var sum Metrics
	for _, m := range perLabel {
		sum.Add(m)
	}
	if sum.Annotated != d.Len() || sum.Truth != d.Len() {
		t.Fatalf("summed counters %+v, want A = T = %d", sum, d.Len())
	}
	if p := sum.Precision(); math.Abs(p-acc) > 1e-12 {
		t.Errorf("micro precision %v != accuracy %v", p, acc)
	}
}

func TestMetricsAdd(t *testing.T) {
	m := Metrics{Correct: 1, Annotated: 2, Truth: 3}
	m.Add(Metrics{Correct: 10, Annotated: 20, Truth: 30})
	if want := (Metrics{Correct: 11, Annotated: 22, Truth: 33}); m != want {
		t.Errorf("Add = %+v, want %+v", m, want)
	}
}

func TestDatasetAddExtractsFeatures(t *testing.T) {
	var d Dataset
	d.Add("The museum's art gallery", "museum")
	if d.Len() != 1 || d.Examples[0].Label != "museum" {
		t.Fatalf("examples = %+v", d.Examples)
	}
	if want := textproc.Extract("The museum's art gallery"); !reflect.DeepEqual(d.Examples[0].Features, want) {
		t.Errorf("features = %v, want %v", d.Examples[0].Features, want)
	}
	if labels := (&Dataset{}).Labels(); len(labels) != 0 {
		t.Errorf("Labels of an empty dataset = %v", labels)
	}
}

// TestShufflePermutes: Shuffle keeps every example, is deterministic in its
// source and moves examples.
func TestShufflePermutes(t *testing.T) {
	labels := func(d Dataset) []string {
		out := make([]string, d.Len())
		for i, ex := range d.Examples {
			out[i] = ex.Label
		}
		return out
	}
	var d Dataset
	for i := 0; i < 100; i++ {
		d.Examples = append(d.Examples, example("t", fmt.Sprint(i)))
	}
	before := labels(d)
	a := Dataset{Examples: append([]Example(nil), d.Examples...)}
	b := Dataset{Examples: append([]Example(nil), d.Examples...)}
	a.Shuffle(rand.New(rand.NewSource(7)))
	b.Shuffle(rand.New(rand.NewSource(7)))
	got := labels(a)
	if !reflect.DeepEqual(got, labels(b)) {
		t.Error("equal sources shuffled differently")
	}
	if reflect.DeepEqual(got, before) {
		t.Error("shuffle left 100 examples in place")
	}
	sort.Strings(got)
	sort.Strings(before)
	if !reflect.DeepEqual(got, before) {
		t.Error("shuffle lost or duplicated examples")
	}
}

// TestSplitPositional: the two halves are the dataset's prefix and suffix, in
// order, and an out-of-range fraction clamps.
func TestSplitPositional(t *testing.T) {
	d := synthDataset(10, 31)
	train, test := d.Split(0.3)
	if train.Len() != 3 || test.Len() != 7 {
		t.Fatalf("split = %d/%d, want 3/7", train.Len(), test.Len())
	}
	joined := append(append([]Example(nil), train.Examples...), test.Examples...)
	if !reflect.DeepEqual(joined, d.Examples) {
		t.Error("Split reordered the examples")
	}
	train, test = d.Split(-1)
	if train.Len() != 0 || test.Len() != 10 {
		t.Errorf("split(-1) = %d/%d, want 0/10", train.Len(), test.Len())
	}
}
