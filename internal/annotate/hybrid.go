package annotate

import (
	"context"

	"repro/internal/table"
)

// Hybrid combines a catalogue annotator with the discovery pipeline — the
// integration the paper proposes as future work in §6.4: "use Limaye to
// annotate entities that belong to a pre-compiled catalogue, and resort to
// the search engine only to annotate previously unseen entities", cutting
// the per-row latency that dominates the running time.
type Hybrid struct {
	// Catalogue handles the known entities at zero query cost.
	Catalogue *CatalogueAnnotator
	// Discovery handles the cells the catalogue does not know.
	Discovery Config
}

// AnnotateTable annotates known cells from the catalogue, sends only the
// remaining cells through the search engine, merges the two annotation sets
// and (when the discovery config has post-processing enabled) applies the
// Eq. 2 column-coherence cleanup to the merged result.
func (h *Hybrid) AnnotateTable(t *table.Table) *Result {
	catRes := h.Catalogue.AnnotateTable(t, h.Discovery.Types)
	known := make(map[CellKey]bool, len(catRes.Annotations))
	for _, ann := range catRes.Annotations {
		known[CellKey{Row: ann.Row, Col: ann.Col}] = true
	}

	// Run discovery with post-processing deferred so Eq. 2 sees the
	// merged annotation set.
	cfg := h.Discovery
	cfg.Postprocess = false
	discRes := mustResult(cfg.For(t).annotateExcluding(context.Background(), known, false))

	merged := &Result{
		Annotations: append(append([]Annotation(nil), catRes.Annotations...), discRes.Annotations...),
		Skipped:     discRes.Skipped,
		Queries:     discRes.Queries,
		CacheHits:   discRes.CacheHits,
		CacheMisses: discRes.CacheMisses,
	}
	if h.Discovery.Postprocess {
		h.Discovery.postprocess(t, merged)
	}
	return merged
}

// mustResult unwraps a run under context.Background(): the pipeline fails
// only on cancellation or a Searcher error, and the built-in engine fails
// only on cancellation. The panic reports a Searcher that failed instead of
// silently returning a truncated Result.
func mustResult(res *Result, err error) *Result {
	if err != nil {
		panic("annotate: background-context run failed: " + err.Error())
	}
	return res
}
