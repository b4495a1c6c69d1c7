package annotate

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/table"
)

// CellExplanation records why one cell was or was not annotated — the
// debugging view behind cmd/annotate's -explain flag.
type CellExplanation struct {
	Row, Col int
	Content  string
	// Skipped is the pre-processing reason, when the cell never reached
	// the engine.
	Skipped SkipReason
	// Query is the (possibly spatially augmented) query submitted.
	Query string
	// Votes counts snippet classifications per type.
	Votes map[string]int
	// Retrieved is the number of snippets fetched.
	Retrieved int
	// Verdict is the decided type, empty when the majority rule
	// abstained.
	Verdict string
	Score   float64
}

// String renders the explanation as one human-readable line.
func (e CellExplanation) String() string {
	head := fmt.Sprintf("T(%d,%d) %q", e.Row, e.Col, e.Content)
	if e.Skipped != SkipNone {
		return head + " skipped: " + string(e.Skipped)
	}
	var votes []string
	for _, typ := range sortedVoteTypes(e.Votes) {
		votes = append(votes, fmt.Sprintf("%s=%d", typ, e.Votes[typ]))
	}
	verdict := "abstained"
	if e.Verdict != "" {
		verdict = fmt.Sprintf("-> %s (%.2f)", e.Verdict, e.Score)
	}
	return fmt.Sprintf("%s query=%q k=%d votes[%s] %s",
		head, e.Query, e.Retrieved, strings.Join(votes, " "), verdict)
}

func sortedVoteTypes(votes map[string]int) []string {
	types := make([]string, 0, len(votes))
	for t := range votes {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool {
		if votes[types[i]] != votes[types[j]] {
			return votes[types[i]] > votes[types[j]]
		}
		return types[i] < types[j]
	})
	return types
}

// Explain runs the annotation pipeline in tracing mode and returns one
// explanation per cell (post-processing is not applied: explanations show
// the raw Eq. 1 decisions the column-coherence step would then filter).
// Like Annotate, ctx is checked between cell queries: a cancelled trace
// returns ctx.Err() instead of finishing its remaining round-trips.
func (c Config) Explain(ctx context.Context, t *table.Table) ([]CellExplanation, error) {
	return c.For(t).Explain(ctx)
}

// Explain is Config.Explain over the run's table.
func (r *Run) Explain(ctx context.Context) ([]CellExplanation, error) {
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
		colSkipped := c.Pre.SkipColumn(t.Columns[j-1].Type)
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
