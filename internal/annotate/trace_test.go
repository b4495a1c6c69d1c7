package annotate

import (
	"strings"
	"testing"

	"repro/internal/table"
)

func TestExplainTable(t *testing.T) {
	f := newFixture(t)
	tbl := poiTable(t)
	a := f.config()
	exps := explainTable(a, tbl)
	if len(exps) != tbl.NumRows()*tbl.NumCols() {
		t.Fatalf("explanations = %d, want one per cell (%d)", len(exps), tbl.NumRows()*tbl.NumCols())
	}
	byCell := map[[2]int]CellExplanation{}
	for _, e := range exps {
		byCell[[2]int{e.Row, e.Col}] = e
	}
	// Name cell: queried, votes recorded, verdict museum.
	name := byCell[[2]int{1, 1}]
	if name.Skipped != SkipNone || name.Query == "" || name.Retrieved == 0 {
		t.Errorf("name cell explanation incomplete: %+v", name)
	}
	if name.Verdict != "museum" {
		t.Errorf("name verdict = %q, want museum", name.Verdict)
	}
	if name.Votes["museum"] == 0 {
		t.Errorf("votes missing: %v", name.Votes)
	}
	// Phone cell: skipped with reason, never queried.
	phone := byCell[[2]int{1, 2}]
	if phone.Skipped != SkipPhone || phone.Query != "" {
		t.Errorf("phone cell explanation = %+v", phone)
	}
	// String rendering carries the essentials.
	s := name.String()
	if !strings.Contains(s, "museum") || !strings.Contains(s, "T(1,1)") {
		t.Errorf("String() = %q", s)
	}
	ps := phone.String()
	if !strings.Contains(ps, "skipped: phone number") {
		t.Errorf("skip String() = %q", ps)
	}
}

func TestExplainAbstention(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("amb", table.Column{Header: "Name", Type: table.Text})
	if err := tbl.AppendRow("Melisse"); err != nil {
		t.Fatal(err)
	}
	exps := explainTable(f.config(), tbl)
	e := exps[0]
	if e.Verdict == "" && !strings.Contains(e.String(), "abstained") {
		t.Errorf("abstention not rendered: %q", e.String())
	}
	// Whatever the verdict, the votes must sum to at most the retrieved
	// snippet count.
	total := 0
	for _, v := range e.Votes {
		total += v
	}
	if total > e.Retrieved {
		t.Errorf("votes %d exceed retrieved %d", total, e.Retrieved)
	}
}

func TestExplainColumnTypeSkip(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("loc",
		table.Column{Header: "Address", Type: table.Location},
	)
	if err := tbl.AppendRow("Ocean Drive, Santa Monica"); err != nil {
		t.Fatal(err)
	}
	exps := explainTable(f.config(), tbl)
	if exps[0].Skipped != SkipColumnType {
		t.Errorf("Location column not marked column-type skipped: %+v", exps[0])
	}
}

// TestExplainAgreesWithAnnotate: Explain takes its verdict from the decide
// function the pipeline runs — the flat majority or, with ClusterThreshold
// set, the cluster rule — so with post-processing off every annotation is
// exactly an explanation's verdict and score, and every verdict is an
// annotation. The ambiguous name is where the two rules part: its flat votes
// abstain, its dominant cluster does not.
func TestExplainAgreesWithAnnotate(t *testing.T) {
	f := newFixture(t)
	amb := table.New("amb", table.Column{Header: "Name", Type: table.Text})
	if err := amb.AppendRow("Melisse"); err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{0, 0.4} {
		c := f.config()
		c.ClusterThreshold = threshold
		verdicts := 0
		for _, tbl := range []*table.Table{poiTable(t), amb} {
			explained := map[Annotation]bool{}
			for _, e := range explainTable(c, tbl) {
				if e.Verdict != "" {
					explained[Annotation{Row: e.Row, Col: e.Col, Type: e.Verdict, Score: e.Score}] = true
				}
			}
			res := annotateTable(c, tbl)
			if len(res.Annotations) != len(explained) {
				t.Fatalf("threshold %v, table %s: %d annotations, %d explained verdicts", threshold, tbl.Name, len(res.Annotations), len(explained))
			}
			for _, a := range res.Annotations {
				if !explained[a] {
					t.Errorf("threshold %v, table %s: annotation %+v has no matching explanation", threshold, tbl.Name, a)
				}
			}
			verdicts += len(explained)
		}
		if verdicts == 0 {
			t.Errorf("threshold %v: nothing was annotated", threshold)
		}
	}
}
