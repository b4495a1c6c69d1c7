package classify

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/textproc"
)

// TestLinearSVMTrainerDefaults: zero Epochs trains the same model as the
// documented default spelled out.
func TestLinearSVMTrainerDefaults(t *testing.T) {
	d := synthDataset(60, 17)
	got := LinearSVMTrainer{Seed: 9}.Train(d).(*LinearSVM)
	want := LinearSVMTrainer{Epochs: 18, Seed: 9}.Train(d).(*LinearSVM)
	if !reflect.DeepEqual(got.weights, want.weights) || !reflect.DeepEqual(got.bias, want.bias) {
		t.Error("zero Epochs trained a different model than Epochs 18")
	}
}

// TestLinearSVMPredictIsScoresArgmax: the term-major Predict picks a label
// whose Scores value is the maximum, up to float re-association.
func TestLinearSVMPredictIsScoresArgmax(t *testing.T) {
	d := persistDataset()
	m := LinearSVMTrainer{Seed: 4}.Train(d).(*LinearSVM)
	probes := persistFeatures()
	for _, ex := range d.Examples[:40] {
		probes = append(probes, ex.Features)
	}
	for i, f := range probes {
		scores := m.Scores(f)
		best := math.Inf(-1)
		for _, s := range scores {
			best = math.Max(best, s)
		}
		pred := m.Predict(f)
		if s, ok := scores[pred]; !ok || s < best-1e-9 {
			t.Errorf("probe %d: Predict = %q scoring %v, best score %v (%v)", i, pred, s, best, scores)
		}
	}
}

// TestLinearSVMManyLabels: a model with more labels than Predict's stack
// buffer holds still separates one-term classes.
func TestLinearSVMManyLabels(t *testing.T) {
	var d Dataset
	for i := 0; i < 20; i++ {
		for j := 0; j < 5; j++ {
			d.Examples = append(d.Examples, example(fmt.Sprintf("term%02d", i), fmt.Sprintf("label%02d", i)))
		}
	}
	m := LinearSVMTrainer{Seed: 2}.Train(d)
	for i := 0; i < 20; i++ {
		if got, want := m.Predict(textproc.Features{fmt.Sprintf("term%02d", i): 1}), fmt.Sprintf("label%02d", i); got != want {
			t.Errorf("Predict(term%02d) = %q, want %q", i, got, want)
		}
	}
}

// TestLinearSVMEmptyDataset: a model trained on nothing knows no label and
// predicts "".
func TestLinearSVMEmptyDataset(t *testing.T) {
	m := LinearSVMTrainer{}.Train(Dataset{}).(*LinearSVM)
	f := textproc.Extract("museum gallery")
	if got := m.Predict(f); got != "" {
		t.Errorf("Predict = %q, want \"\"", got)
	}
	if got := m.Scores(f); len(got) != 0 {
		t.Errorf("Scores = %v, want none", got)
	}
}

// TestSVMTrainScheduleIndependent: the one-vs-rest machines train on the pool,
// and the model — its TCLF bytes — is the same at GOMAXPROCS 1, 2 and 8.
func TestSVMTrainScheduleIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, d := range map[string]Dataset{"synth": synthDataset(60, 17), "persist": persistDataset()} {
		var want []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := LinearSVMTrainer{Seed: 3}.Train(d).(*LinearSVM).AppendTo(nil)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: GOMAXPROCS=%d trains other TCLF bytes than GOMAXPROCS=1", name, procs)
			}
		}
	}
}
