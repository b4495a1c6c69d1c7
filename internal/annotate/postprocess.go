package annotate

import (
	"math"
	"strings"

	"repro/internal/table"
	"repro/internal/textproc"
)

// postprocess implements §5.3: for every type t, compute the global column
// score of Eq. 2,
//
//	S_j = Σ_i ln(S_ij / o_ij + 1)
//
// where o_ij is the number of occurrences of T(i,j)'s content across column
// j (repeated values like the "Museum" column of Figure 8 are damped by
// 1/o_ij), and keep only the annotations of t that sit in the
// highest-scoring column.
func (c Config) postprocess(t *table.Table, res *Result) {
	// Occurrence counts per column, built at a column's first annotation:
	// a column no annotation sits in is never read.
	occ := make([]map[string]int, t.NumCols()+1)

	colScores := map[string]map[int]float64{}
	for _, ann := range res.Annotations {
		cols := colScores[ann.Type]
		if cols == nil {
			cols = map[int]float64{}
			colScores[ann.Type] = cols
		}
		if occ[ann.Col] == nil {
			occ[ann.Col] = make(map[string]int, t.NumRows())
			for i := 1; i <= t.NumRows(); i++ {
				occ[ann.Col][normCell(t.Cell(i, ann.Col))]++
			}
		}
		o := occ[ann.Col][normCell(t.Cell(ann.Row, ann.Col))]
		if o < 1 {
			o = 1
		}
		cols[ann.Col] += math.Log(ann.Score/float64(o) + 1)
	}
	res.ColumnScores = colScores

	bestCol := bestColumns(colScores)
	kept := res.Annotations[:0]
	for _, ann := range res.Annotations {
		if bestCol[ann.Type] == ann.Col {
			kept = append(kept, ann)
		}
	}
	res.Annotations = kept
}

// bestColumns picks every type's highest-scoring column; ties keep the
// leftmost column for determinism.
func bestColumns(colScores map[string]map[int]float64) map[string]int {
	bestCol := make(map[string]int, len(colScores))
	for typ, cols := range colScores {
		best, bestScore := 0, math.Inf(-1)
		for j, s := range cols {
			if s > bestScore || (s == bestScore && j < best) {
				best, bestScore = j, s
			}
		}
		bestCol[typ] = best
	}
	return bestCol
}

// normCell normalises cell content for occurrence counting: lower-cased,
// whitespace runs collapsed. One pass over an ASCII cell, which comes back
// itself when it is already in that form (the common case — no allocation);
// any other cell takes the defining expression.
func normCell(s string) string {
	var stack [64]byte
	buf, ascii := textproc.AppendNormASCII(stack[:0], s)
	switch {
	case !ascii:
		return strings.Join(strings.Fields(strings.ToLower(s)), " ")
	case string(buf) == s:
		return s
	}
	return string(buf)
}

// ColumnTypes derives a semantic type per column from the Eq. 2 scores: the
// type whose global score is highest in that column, provided the column is
// that type's best column. This is step (a) of the table-annotation task the
// paper situates itself in (§1) — "determine the type(s) of each column" —
// obtained as a byproduct of entity annotation. Only available after a
// post-processed run; returns nil otherwise.
func (r *Result) ColumnTypes() map[int]string {
	if r.ColumnScores == nil {
		return nil
	}
	bestCol := bestColumns(r.ColumnScores)
	out := map[int]string{}
	outScore := map[int]float64{}
	for typ, j := range bestCol {
		score := r.ColumnScores[typ][j]
		if prev, ok := out[j]; !ok || score > outScore[j] || (score == outScore[j] && typ < prev) {
			out[j] = typ
			outScore[j] = score
		}
	}
	return out
}
