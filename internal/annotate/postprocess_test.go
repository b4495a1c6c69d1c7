package annotate

import (
	"math"
	"testing"

	"repro/internal/table"
)

// eq2Table builds a 4x2 table where column 1 has distinct values and column
// 2 repeats one value.
func eq2Table(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("eq2",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Type", Type: table.Text},
	)
	rows := [][]string{
		{"Alpha House", "Museum"},
		{"Beta Hall", "Museum"},
		{"Gamma Center", "Museum"},
		{"Delta Pavilion", "Museum"},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestEq2ScoreComputation checks the exact Eq. 2 arithmetic:
// S_j = Σ ln(S_ij / o_ij + 1).
func TestEq2ScoreComputation(t *testing.T) {
	tbl := eq2Table(t)
	res := &Result{Annotations: []Annotation{
		{Row: 1, Col: 1, Type: "museum", Score: 1.0},
		{Row: 2, Col: 1, Type: "museum", Score: 0.8},
		{Row: 1, Col: 2, Type: "museum", Score: 1.0},
		{Row: 2, Col: 2, Type: "museum", Score: 1.0},
		{Row: 3, Col: 2, Type: "museum", Score: 1.0},
		{Row: 4, Col: 2, Type: "museum", Score: 1.0},
	}}
	Config{}.postprocess(tbl, res)

	// Column 1: distinct values, o=1: ln(1/1+1) + ln(0.8/1+1).
	want1 := math.Log(2) + math.Log(1.8)
	// Column 2: "Museum" appears 4 times, o=4: 4 * ln(1/4 + 1).
	want2 := 4 * math.Log(1.25)
	got1 := res.ColumnScores["museum"][1]
	got2 := res.ColumnScores["museum"][2]
	if math.Abs(got1-want1) > 1e-12 {
		t.Errorf("S_1 = %v, want %v", got1, want1)
	}
	if math.Abs(got2-want2) > 1e-12 {
		t.Errorf("S_2 = %v, want %v", got2, want2)
	}
	// Column 1 wins; only its annotations survive.
	for _, ann := range res.Annotations {
		if ann.Col != 1 {
			t.Errorf("annotation in losing column survived: %+v", ann)
		}
	}
	if len(res.Annotations) != 2 {
		t.Errorf("kept %d annotations, want 2", len(res.Annotations))
	}
}

// TestEq2RepetitionDamping: with equal per-cell scores, a column of n
// distinct values always beats a column of n copies of one value.
func TestEq2RepetitionDamping(t *testing.T) {
	for n := 2; n <= 30; n++ {
		distinct := float64(n) * math.Log(2)                // n cells, o=1
		repeated := float64(n) * math.Log(1+1.0/float64(n)) // n cells, o=n
		if repeated >= distinct {
			t.Fatalf("n=%d: repeated column score %v >= distinct %v", n, repeated, distinct)
		}
	}
}

// TestPostprocessPerTypeIndependence: post-processing picks a best column
// per type, so two types annotated in different columns both survive.
func TestPostprocessPerTypeIndependence(t *testing.T) {
	tbl := table.New("two",
		table.Column{Header: "A", Type: table.Text},
		table.Column{Header: "B", Type: table.Text},
	)
	for i := 0; i < 3; i++ {
		if err := tbl.AppendRow("m"+string(rune('0'+i)), "r"+string(rune('0'+i))); err != nil {
			t.Fatal(err)
		}
	}
	res := &Result{Annotations: []Annotation{
		{Row: 1, Col: 1, Type: "museum", Score: 0.9},
		{Row: 2, Col: 1, Type: "museum", Score: 0.9},
		{Row: 1, Col: 2, Type: "restaurant", Score: 0.9},
		{Row: 3, Col: 2, Type: "restaurant", Score: 0.9},
	}}
	Config{}.postprocess(tbl, res)
	kept := map[string]int{}
	for _, ann := range res.Annotations {
		kept[ann.Type]++
	}
	if kept["museum"] != 2 || kept["restaurant"] != 2 {
		t.Errorf("kept = %v, want both types intact", kept)
	}
}

// TestPostprocessEmptyResult: no annotations, no panic, empty scores.
func TestPostprocessEmptyResult(t *testing.T) {
	tbl := eq2Table(t)
	res := &Result{}
	Config{}.postprocess(tbl, res)
	if len(res.Annotations) != 0 || len(res.ColumnScores) != 0 {
		t.Errorf("empty result mutated: %+v", res)
	}
}

// TestColumnTypes: the Eq. 2 scores yield a per-column semantic type — the
// paper's table-annotation step (a) as a byproduct.
func TestColumnTypes(t *testing.T) {
	tbl := table.New("ct",
		table.Column{Header: "A", Type: table.Text},
		table.Column{Header: "B", Type: table.Text},
	)
	for i := 0; i < 3; i++ {
		if err := tbl.AppendRow("m"+string(rune('0'+i)), "r"+string(rune('0'+i))); err != nil {
			t.Fatal(err)
		}
	}
	res := &Result{Annotations: []Annotation{
		{Row: 1, Col: 1, Type: "museum", Score: 0.9},
		{Row: 2, Col: 1, Type: "museum", Score: 0.9},
		{Row: 1, Col: 2, Type: "restaurant", Score: 0.9},
	}}
	Config{}.postprocess(tbl, res)
	types := res.ColumnTypes()
	if types[1] != "museum" || types[2] != "restaurant" {
		t.Errorf("ColumnTypes = %v", types)
	}
	// Without post-processing there are no column scores.
	if (&Result{}).ColumnTypes() != nil {
		t.Error("ColumnTypes without postprocess should be nil")
	}
}

// TestPostprocessTieKeepsLeftmost: equal column scores keep the leftmost
// column deterministically.
func TestPostprocessTieKeepsLeftmost(t *testing.T) {
	tbl := table.New("tie",
		table.Column{Header: "A", Type: table.Text},
		table.Column{Header: "B", Type: table.Text},
	)
	if err := tbl.AppendRow("x", "y"); err != nil {
		t.Fatal(err)
	}
	res := &Result{Annotations: []Annotation{
		{Row: 1, Col: 1, Type: "museum", Score: 0.7},
		{Row: 1, Col: 2, Type: "museum", Score: 0.7},
	}}
	Config{}.postprocess(tbl, res)
	if len(res.Annotations) != 1 || res.Annotations[0].Col != 1 {
		t.Errorf("tie resolution = %+v, want leftmost column", res.Annotations)
	}
}
