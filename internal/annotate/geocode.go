package annotate

import (
	"context"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
	"repro/internal/table"
)

// GeoAnnotation is one Location-column cell resolved against the gazetteer:
// the §5.2.2 geocode+disambiguate machinery surfaced as an output product
// rather than only as internal query augmentation.
type GeoAnnotation struct {
	Row, Col int // 1-based, the paper's T(i,j)
	// Location is the chosen interpretation rendered with its full
	// container chain, e.g. "Pennsylvania Avenue, Washington, D.C., USA".
	Location string
	// Kind is the hierarchy level of the chosen location ("street",
	// "city", "state", "country").
	Kind string
	// City is the containing city's bare name; empty when the location
	// sits above city level.
	City string
	// Candidates is the size of the cell's candidate set before
	// disambiguation; 1 means the cell was unambiguous.
	Candidates int
	// Score is the chosen interpretation's share of the cell's final
	// score distribution (1 for unambiguous cells; see disambig).
	Score float64
	// Loc is the chosen interpretation's gazetteer ID, for callers that
	// compare against a gold truth (the scenario matrix's geo accuracy).
	// Not part of the wire format — the serving layer maps fields
	// explicitly and omits it.
	Loc gazetteer.LocID
}

// GeoStageStats describes one geo-stage run: how many cells geocoded and
// how the disambiguation graph decomposed. Zero when the table had nothing
// to geocode.
type GeoStageStats struct {
	// Cells is the number of cells that geocoded to at least one
	// candidate (= the interpretations fed to disambiguation).
	Cells int
	// Components, LargestComponent and Edges describe the voting graph's
	// connected-component decomposition (see disambig.Stats).
	Components       int
	LargestComponent int
	// PeakScratchBytes is the high-water mark of pooled per-component
	// scratch held concurrently during resolution — the O(largest
	// component × workers) memory bound made observable.
	PeakScratchBytes int64
}

// geoResolution is one table's geocode+disambiguate result — the geocoded
// interpretations in column-major cell order and, per interpretation, the
// voting outcome — computed once and shared between the §5.2.2 spatial query
// augmentation and the GeoAnnotate output so a request wanting both never
// resolves the same table twice.
type geoResolution struct {
	table   *table.Table
	interps []disambig.Interpretation
	slots   []geoSlot // slots[i] resolves interps[i]
	stats   GeoStageStats
}

// geoSlot is one interpretation's outcome: the chosen location and its share
// of the cell's final score distribution.
type geoSlot struct {
	loc   gazetteer.LocID
	score float64
}

// resolveGeo geocodes the table's Location columns and resolves them through
// the voting graph; nil when the config has no gazetteer or nothing geocodes.
// Component results stream from whichever disambiguation worker finished them
// into one slot per interpretation — the geocode pass emits one
// interpretation per cell, so every slot is written exactly once — and tables
// of every size take the same path, holding only the slots plus pooled
// per-component scratch.
// Cancellation is checked every geoCancelStride geocoded cells and once more
// before resolution — geocoding against a large gazetteer is the stage's
// dominant cost, and an abandoned request should release its admission slot
// instead of finishing work nobody reads.
func (c Config) resolveGeo(ctx context.Context, t *table.Table) (*geoResolution, error) {
	interps, err := c.geocodeCells(ctx, t)
	if err != nil || len(interps) == 0 {
		return nil, err
	}
	slots := make([]geoSlot, len(interps))
	st := disambig.ResolveStream(interps, c.Gazetteer, disambig.Options{Workers: c.GeoWorkers},
		func(i int, loc gazetteer.LocID, score float64) {
			slots[i] = geoSlot{loc: loc, score: score}
		})
	return &geoResolution{
		table:   t,
		interps: interps,
		slots:   slots,
		stats: GeoStageStats{
			Cells:            len(interps),
			Components:       st.Components,
			LargestComponent: st.LargestComponent,
			PeakScratchBytes: st.PeakScratchBytes,
		},
	}, nil
}

// geocodeCells geocodes the table's Location columns into the
// interpretation list disambiguation consumes, in column-major cell order.
// Nil when the config has no gazetteer or nothing geocodes.
func (c Config) geocodeCells(ctx context.Context, t *table.Table) ([]disambig.Interpretation, error) {
	if c.Gazetteer == nil {
		return nil, nil
	}
	const geoCancelStride = 64
	var interps []disambig.Interpretation
	cells := 0
	for _, j := range t.ColumnIndexesOfType(table.Location) {
		for i := 1; i <= t.NumRows(); i++ {
			if cells%geoCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			cells++
			cands := c.Gazetteer.Geocode(t.Cell(i, j))
			if len(cands) == 0 {
				continue
			}
			interps = append(interps, disambig.Interpretation{
				Cell:       disambig.CellRef{Row: i, Col: j},
				Candidates: cands,
			})
		}
	}
	return interps, ctx.Err()
}

// geoFor returns the precomputed resolution when one was prepared for THIS
// table (see PrepareGeo), resolving freshly otherwise.
func (c Config) geoFor(ctx context.Context, t *table.Table) (*geoResolution, error) {
	if c.geo != nil && c.geo.table == t {
		return c.geo, nil
	}
	return c.resolveGeo(ctx, t)
}

// PrepareGeo returns a copy of the config carrying the table's resolved
// geography, so a subsequent Annotate (whose Disambiguate stage needs the
// per-row cities) and GeoAnnotate (whose output is the resolution itself)
// on the SAME table share one geocode+vote pass. The precomputation is
// bound to the given table; runs over any other table resolve freshly, so a
// prepared config is never wrong, only warmer. The error is ctx.Err() when
// the context cancels mid-resolution.
func (c Config) PrepareGeo(ctx context.Context, t *table.Table) (Config, error) {
	res, err := c.resolveGeo(ctx, t)
	if err != nil {
		return c, err
	}
	c.geo = res
	return c, nil
}

// GeoAnnotate runs the opt-in geocode+disambiguate stage over one table:
// every Location-column cell is geocoded to its candidate interpretations,
// the §5.2.2 voting graph resolves the ambiguity table-wide, and each
// geocodable cell yields one GeoAnnotation, in column-major cell order.
// Cells the gazetteer cannot geocode are omitted. Returns nil when the
// config has no gazetteer or the table has no geocodable cells.
//
// The stage executes from the immutable Config like every other pipeline
// stage: it mutates nothing, so one Config may run any number of concurrent
// GeoAnnotate calls, and it costs no search-engine queries — only gazetteer
// lookups and graph propagation (or neither, after PrepareGeo).
// Cancellation is observed between geocoded cells and before propagation;
// the error is then ctx.Err(), never a truncated result.
func (c Config) GeoAnnotate(ctx context.Context, t *table.Table) ([]GeoAnnotation, error) {
	gas, _, err := c.GeoAnnotateStats(ctx, t)
	return gas, err
}

// GeoAnnotateStats is GeoAnnotate plus the stage's decomposition
// statistics (component counts and the peak pooled-scratch high-water
// mark), for serving layers that surface them.
func (c Config) GeoAnnotateStats(ctx context.Context, t *table.Table) ([]GeoAnnotation, GeoStageStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, GeoStageStats{}, err
	}
	res, err := c.geoFor(ctx, t)
	if res == nil {
		return nil, GeoStageStats{}, err
	}
	out := make([]GeoAnnotation, 0, len(res.interps))
	for i, it := range res.interps {
		s := res.slots[i]
		if s.loc == gazetteer.NoLocation {
			continue // unreachable: every interpretation has candidates
		}
		out = append(out, c.geoAnnotation(it, s.loc, s.score))
	}
	return out, res.stats, nil
}

// geoAnnotation renders one resolved cell.
func (c Config) geoAnnotation(it disambig.Interpretation, loc gazetteer.LocID, score float64) GeoAnnotation {
	ga := GeoAnnotation{
		Row:        it.Cell.Row,
		Col:        it.Cell.Col,
		Location:   c.Gazetteer.FullName(loc),
		Kind:       c.Gazetteer.Kind(loc).String(),
		Candidates: len(it.Candidates),
		Score:      score,
		Loc:        loc,
	}
	if city := c.Gazetteer.CityOf(loc); city != gazetteer.NoLocation {
		ga.City = c.Gazetteer.Name(city)
	}
	return ga
}
