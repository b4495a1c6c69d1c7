package annotate

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"repro/internal/qcache"
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

// refExplain is the reference a traced run must match: a per-cell walk that
// searches once per queried cell, with no deduplication and no cache, then
// counts the flat votes and decides again, cell by cell.
func refExplain(ctx context.Context, r *Run) ([]CellExplanation, error) {
	c, t := r.cfg, r.t
	gamma := c.typeSet()
	cityByRow, err := r.rowCities(ctx)
	if err != nil {
		return nil, err
	}
	lowerCity := lowerCities(cityByRow, t.NumRows())
	sc := getScratch()
	defer putScratch(sc)
	var out []CellExplanation
	for j := 1; j <= t.NumCols(); j++ {
		colSkipped := SkipColumn(t.Columns[j-1].Type)
		for i := 1; i <= t.NumRows(); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			e := CellExplanation{Row: i, Col: j, Content: strings.TrimSpace(t.Cell(i, j)), Skipped: SkipColumnType}
			if !colSkipped {
				e.Query, e.Skipped = c.queryFor(e.Content, cityByRow[i], lowerCity[i])
			}
			if e.Skipped != SkipNone {
				out = append(out, e)
				continue
			}
			results, err := c.searchOne(ctx, e.Query)
			if err != nil {
				return nil, err
			}
			e.Retrieved = len(results)
			// Votes are the flat counts, for display; the verdict is the
			// configured decision rule's own.
			c.countVotes(sc, results, gamma)
			e.Votes = maps.Clone(sc.counts)
			e.Verdict, e.Score, _ = c.decideWith(sc, results, gamma)
			out = append(out, e)
		}
	}
	return out, nil
}

// traceRefTable has every kind of cell a trace explains: repeated names (the
// same query once, and with Disambiguate on, different queries in different
// cities), a name that already carries its row's city, a phone number, an
// empty cell, plain text, and two column-type-skipped columns, one of them the
// Location column the augmentation reads.
func traceRefTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("trace-ref",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Address", Type: table.Location},
		table.Column{Header: "Notes", Type: table.Text},
		table.Column{Header: "Founded", Type: table.Number},
	)
	for _, row := range [][]string{
		{"Melisse", "Ocean Drive, Santa Monica", "(410) 555-0101", "1999"},
		{"Musée Lavande", "1600 Pennsylvania Avenue, Washington", "book ahead", "2001"},
		{"Melisse", "2 Clarksville Street, Paris", "(410) 555-0101", "1999"},
		{"Chez Martin", "", "book ahead", ""},
		{"Musée Lavande", "Ocean Drive, Santa Monica", "", "12"},
		{"National Museum of Glass Washington", "1600 Pennsylvania Avenue, Washington", "worth a visit", "3"},
		{"Melisse", "Ocean Drive, Santa Monica", "(410) 555-0101", "1999"},
	} {
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestTracedPassMatchesReference: the trace a run records while it plans,
// executes and merges equals the per-cell reference walk field by field and
// line by line, for both decision rules, both k, spatial augmentation on and
// off, sequential and chunked execution, and with a warm shared cache on the
// config, which the traced run must neither read nor fill. The traced run
// sends each unique query once and returns the untraced run's annotations;
// the reference sends one query per queried cell.
func TestTracedPassMatchesReference(t *testing.T) {
	f := newFixture(t)
	tbl := traceRefTable(t)
	ctx := context.Background()
	for _, disamb := range []bool{false, true} {
		for _, threshold := range []float64{0, 0.4} {
			for _, k := range []int{5, 10} {
				for _, par := range []int{1, 3} {
					for _, cached := range []bool{false, true} {
						name := fmt.Sprintf("disambiguate=%v/threshold=%g/k=%d/parallelism=%d/cache=%v", disamb, threshold, k, par, cached)
						c := f.config()
						c.Disambiguate, c.Gazetteer = disamb, f.gaz
						c.ClusterThreshold, c.K, c.Parallelism = threshold, k, par
						if cached {
							c.Cache = qcache.New()
						}
						untraced := annotateTable(c, tbl)
						unique := untraced.Queries + untraced.CacheHits

						want, err := refExplain(ctx, c.For(tbl))
						if err != nil {
							t.Fatal(err)
						}
						queried := 0
						for _, e := range want {
							if e.Skipped == SkipNone {
								queried++
							}
						}
						before := f.engine.Stats().Queries
						res := mustResult(c.For(tbl).AnnotateTraced(ctx))
						sent := f.engine.Stats().Queries - before

						if len(res.Trace) != len(want) {
							t.Fatalf("%s: %d explanations, reference %d", name, len(res.Trace), len(want))
						}
						for i := range want {
							if !reflect.DeepEqual(res.Trace[i], want[i]) {
								t.Errorf("%s: explanation %d = %+v, reference %+v", name, i, res.Trace[i], want[i])
							}
							if got, ref := res.Trace[i].String(), want[i].String(); got != ref {
								t.Errorf("%s: line %d = %q, reference %q", name, i, got, ref)
							}
						}
						if !reflect.DeepEqual(res.Annotations, untraced.Annotations) {
							t.Errorf("%s: traced annotations %+v, untraced %+v", name, res.Annotations, untraced.Annotations)
						}
						if sent != unique || res.Queries != unique || unique >= queried {
							t.Errorf("%s: traced run sent %d queries and reported %d; want the %d unique ones, fewer than the %d queried cells",
								name, sent, res.Queries, unique, queried)
						}
						if res.CacheHits != 0 || res.CacheMisses != 0 {
							t.Errorf("%s: traced run touched the cache: %d hits, %d misses", name, res.CacheHits, res.CacheMisses)
						}
						if cached && c.Cache.Len() != unique {
							t.Errorf("%s: cache holds %d verdicts after the traced run, want the untraced run's %d", name, c.Cache.Len(), unique)
						}
					}
				}
			}
		}
	}
}
