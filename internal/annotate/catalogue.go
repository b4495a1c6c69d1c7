package annotate

import (
	"strings"

	"repro/internal/table"
)

// CatalogueAnnotator is the Limaye-style comparator of §6.3: it annotates
// cells by exact lookup in a pre-compiled catalogue of known entities. It
// can, by construction, never discover an entity absent from the catalogue —
// the coverage gap (≈22% of table entities, §1) the paper's algorithm closes.
type CatalogueAnnotator struct {
	// Catalogue maps lower-cased entity names to their type.
	Catalogue map[string]string
	// PropagateColumnType additionally infers a majority type per column
	// from the known entities and annotates the remaining (unknown)
	// cells of that column with it — the "column homogeneity" shortcut
	// of the introduction, which breaks on mixed-type tables (Figure 2).
	PropagateColumnType bool
}

// AnnotateTable annotates one table against the catalogue, restricted to the
// given types.
func (c *CatalogueAnnotator) AnnotateTable(t *table.Table, types []string) *Result {
	gamma := make(map[string]struct{}, len(types))
	for _, typ := range types {
		gamma[typ] = struct{}{}
	}
	res := &Result{Skipped: map[SkipReason]int{}}
	colVotes := make([]map[string]int, t.NumCols()+1)
	annotated := map[[2]int]bool{}

	for j := 1; j <= t.NumCols(); j++ {
		if SkipColumn(t.Columns[j-1].Type) {
			res.Skipped[SkipColumnType] += t.NumRows()
			continue
		}
		colVotes[j] = map[string]int{}
		for i := 1; i <= t.NumRows(); i++ {
			content := t.Cell(i, j)
			if reason := CheckCell(content); reason != SkipNone {
				res.Skipped[reason]++
				continue
			}
			typ, ok := c.Catalogue[normCell(content)]
			if !ok {
				continue
			}
			if _, in := gamma[typ]; !in {
				continue
			}
			res.Annotations = append(res.Annotations, Annotation{Row: i, Col: j, Type: typ, Score: 1.0})
			annotated[[2]int{i, j}] = true
			colVotes[j][typ]++
		}
	}

	if !c.PropagateColumnType {
		return res
	}
	for j := 1; j <= t.NumCols(); j++ {
		if colVotes[j] == nil {
			continue
		}
		best, bestVotes := "", 0
		for typ, v := range colVotes[j] {
			if v > bestVotes || (v == bestVotes && typ < best) {
				best, bestVotes = typ, v
			}
		}
		if bestVotes == 0 {
			continue
		}
		for i := 1; i <= t.NumRows(); i++ {
			if annotated[[2]int{i, j}] {
				continue
			}
			content := t.Cell(i, j)
			if CheckCell(content) != SkipNone || strings.TrimSpace(content) == "" {
				continue
			}
			res.Annotations = append(res.Annotations, Annotation{Row: i, Col: j, Type: best, Score: 0.5})
		}
	}
	return res
}
