package annotate

import (
	"fmt"
	"sort"
	"strings"
)

// CellExplanation records why one cell was or was not annotated — the
// debugging view behind cmd/annotate's -explain flag, recorded by a traced run
// (Run.AnnotateTraced) into Result.Trace.
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
