package annotate

import (
	"context"
	"strings"

	"repro/internal/table"
	"repro/internal/textproc"
)

// TIN is the TypeInName baseline of §6.2: a cell is annotated with type t
// (score 1.0) iff its content contains the name of t ("Louvre Museum"
// contains "museum"). Matching is stem-based so plural forms count. Cells
// matching several type names take the first in Γ order, mirroring the
// baseline's single-annotation output. Pre-processing is applied so the
// comparison with the full algorithm stays fair.
func TIN(t *table.Table, types []string) *Result {
	res := &Result{Skipped: map[SkipReason]int{}}
	stemmed := make([][]string, len(types))
	for i, typ := range types {
		stemmed[i] = textproc.NormalizeTokens(typ)
	}
	for j := 1; j <= t.NumCols(); j++ {
		if SkipColumn(t.Columns[j-1].Type) {
			res.Skipped[SkipColumnType] += t.NumRows()
			continue
		}
		for i := 1; i <= t.NumRows(); i++ {
			content := t.Cell(i, j)
			if reason := CheckCell(content); reason != SkipNone {
				res.Skipped[reason]++
				continue
			}
			cellToks := textproc.NormalizeTokens(content)
			for ti, typ := range types {
				if containsAll(cellToks, stemmed[ti]) {
					res.Annotations = append(res.Annotations, Annotation{Row: i, Col: j, Type: typ, Score: 1.0})
					break
				}
			}
		}
	}
	return res
}

// TIS is the TypeInSnippet baseline of §6.2: query the engine with the cell
// content and annotate with type t iff the majority of the retrieved
// snippets contain the name of t; the score follows Eq. 1. It fails on a
// Searcher error or cancellation; the built-in engine fails only on the latter.
func (c Config) TIS(ctx context.Context, t *table.Table) (*Result, error) {
	res := &Result{Skipped: map[SkipReason]int{}}
	stemmed := make(map[string][]string, len(c.Types))
	for _, typ := range c.Types {
		stemmed[typ] = textproc.NormalizeTokens(typ)
	}
	type verdict struct {
		counts map[string]int
		k      int
	}
	cache := map[string]verdict{}
	for j := 1; j <= t.NumCols(); j++ {
		if SkipColumn(t.Columns[j-1].Type) {
			res.Skipped[SkipColumnType] += t.NumRows()
			continue
		}
		for i := 1; i <= t.NumRows(); i++ {
			content := strings.TrimSpace(t.Cell(i, j))
			if reason := CheckCell(content); reason != SkipNone {
				res.Skipped[reason]++
				continue
			}
			v, ok := cache[content]
			if !ok {
				results, err := c.searchOne(ctx, content)
				if err != nil {
					return nil, err
				}
				res.Queries++
				counts := map[string]int{}
				for _, r := range results {
					snipToks := textproc.NormalizeTokens(r.Snippet)
					for typ, typToks := range stemmed {
						if containsAll(snipToks, typToks) {
							counts[typ]++
						}
					}
				}
				v = verdict{counts: counts, k: len(results)}
				cache[content] = v
			}
			if typ, score, ok := majorityType(v.counts, v.k); ok {
				res.Annotations = append(res.Annotations, Annotation{Row: i, Col: j, Type: typ, Score: score})
			}
		}
	}
	return res, nil
}

// containsAll reports whether every needle token occurs in haystack.
func containsAll(haystack, needles []string) bool {
	if len(needles) == 0 {
		return false
	}
	for _, n := range needles {
		found := false
		for _, h := range haystack {
			if h == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
