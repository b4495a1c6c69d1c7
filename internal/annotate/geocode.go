package annotate

import (
	"context"
	"runtime"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
	"repro/internal/obs"
	"repro/internal/pool"
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

// geoResolution is one table's geocode+disambiguate result — the geocoded
// interpretations in column-major cell order, the voting outcome of each, and
// the voting graph's decomposition statistics. Immutable once built, and
// non-nil even when nothing geocoded (both slices are then empty), so "resolved,
// nothing there" is a value a Run can hold instead of resolving again.
type geoResolution struct {
	interps []disambig.Interpretation
	choices []disambig.Choice // choices[i] resolves interps[i]
	stats   disambig.Stats
}

// geoRangeCells is how many distinct Location texts one item of the
// geocoding fan-out looks up, and so how often geocoding observes the
// request's context: a table of many repeated texts polls it as often as
// one of its distinct texts alone.
const geoRangeCells = 64

// resolution returns the run's geocode+vote pass, making it on first use: the
// §5.2.2 spatial query augmentation and the GeoAnnotate output both read this
// one value, so a request wanting both never resolves its table twice. The
// Location columns geocode, then vote through the graph; both steps run over
// the request's one pool on the same min(GOMAXPROCS, 8) workers, ranges of
// distinct cell texts first and the graph's components after — tables of
// every size take the same path, holding one choice per interpretation plus
// pooled per-component scratch. Without a gazetteer, or when nothing geocodes,
// the resolution is empty. Cancellation is checked before every range of
// geoRangeCells distinct texts, between components and between propagation
// iterations — an abandoned request should release its admission slot instead
// of finishing work nobody reads — and the error is then ctx.Err(), with
// nothing kept: a table is resolved whole or not at all.
func (r *Run) resolution(ctx context.Context) (*geoResolution, error) {
	if r.geo != nil {
		return r.geo, nil
	}
	workers := min(runtime.GOMAXPROCS(0), 8)
	interps, err := r.cfg.geocodeCells(ctx, r.t, workers)
	if err != nil {
		return nil, err
	}
	res := &geoResolution{interps: interps}
	if len(interps) > 0 {
		res.choices, res.stats, err = disambig.ResolvePositional(ctx, interps, r.cfg.Gazetteer, disambig.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
	}
	r.geo = res
	return res, nil
}

// geocodeCells geocodes the table's Location columns into the
// interpretation list disambiguation consumes, in column-major cell order.
// A table names few places many times, so each distinct cell text is looked
// up once: a request-local index numbers the texts in first-appearance order
// and gives every cell its text's number, ranges of distinct texts fan out
// over the pool, each filling its own slots, and cells with equal text then
// share the one read-only candidate slice. Order and bytes are those of the
// per-cell sequential loop whatever the schedule, and a table of one range
// starts no goroutine. Nil when the config has no gazetteer or nothing
// geocodes.
func (c Config) geocodeCells(ctx context.Context, t *table.Table, workers int) ([]disambig.Interpretation, error) {
	if c.Gazetteer == nil {
		return nil, nil
	}
	clock := obs.From(ctx)
	defer clock.Start(obs.Geocode).Stop()
	cols, rows := t.ColumnIndexesOfType(table.Location), t.NumRows()
	textOf := make([]int32, len(cols)*rows) // column-major cell -> its text's number
	index := map[string]int32{}
	var texts []string
	for k := range textOf {
		text := t.Cell(k%rows+1, cols[k/rows])
		d, ok := index[text]
		if !ok {
			d = int32(len(texts))
			index[text] = d
			texts = append(texts, text)
		}
		textOf[k] = d
	}
	cands := make([][]gazetteer.LocID, len(texts))
	ranges := (len(texts) + geoRangeCells - 1) / geoRangeCells
	if err := pool.Run(ctx, workers, ranges, func(r int) {
		lo, hi := r*geoRangeCells, min((r+1)*geoRangeCells, len(texts))
		for d := lo; d < hi; d++ {
			cands[d] = c.Gazetteer.Geocode(texts[d])
		}
		clock.Add(obs.GeocodeCalls, int64(hi-lo))
	}); err != nil {
		return nil, err
	}
	n, total := 0, 0
	for _, d := range textOf {
		if len(cands[d]) > 0 {
			n++
			total += len(cands[d])
		}
	}
	clock.Add(obs.CellsGeocoded, int64(n))
	clock.Add(obs.Candidates, int64(total))
	if n == 0 {
		return nil, nil
	}
	out := make([]disambig.Interpretation, 0, n)
	for k, d := range textOf {
		if len(cands[d]) > 0 {
			out = append(out, disambig.Interpretation{Cell: disambig.CellRef{Row: k%rows + 1, Col: cols[k/rows]}, Candidates: cands[d]})
		}
	}
	return out, nil
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
// lookups and graph propagation. Cancellation is observed between ranges of
// distinct cell texts and throughout propagation; the error is then ctx.Err(),
// never a truncated result.
func (c Config) GeoAnnotate(ctx context.Context, t *table.Table) ([]GeoAnnotation, error) {
	gas, _, err := c.For(t).GeoAnnotate(ctx)
	return gas, err
}

// GeoAnnotate is Config.GeoAnnotate over the run's table, plus the voting
// graph's decomposition statistics (component counts and the peak
// pooled-scratch high-water mark) for serving layers that surface them. It
// costs neither lookups nor propagation when the run's Annotate already
// resolved the table.
func (r *Run) GeoAnnotate(ctx context.Context) ([]GeoAnnotation, disambig.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, disambig.Stats{}, err
	}
	res, err := r.resolution(ctx)
	if err != nil || len(res.interps) == 0 {
		return nil, disambig.Stats{}, err
	}
	gaz := r.cfg.Gazetteer
	out := make([]GeoAnnotation, len(res.interps))
	// A table names few places many times: each is rendered once.
	names := map[gazetteer.LocID]string{}
	for i, it := range res.interps {
		// Every interpretation has candidates, so every choice is a location.
		loc := res.choices[i].Loc
		name, ok := names[loc]
		if !ok {
			name = gaz.FullName(loc)
			names[loc] = name
		}
		out[i] = GeoAnnotation{
			Row:        it.Cell.Row,
			Col:        it.Cell.Col,
			Location:   name,
			Kind:       gaz.Kind(loc).String(),
			Candidates: len(it.Candidates),
			Score:      res.choices[i].Score,
			Loc:        loc,
		}
		if city := gaz.CityOf(loc); city != gazetteer.NoLocation {
			out[i].City = gaz.Name(city)
		}
	}
	return out, res.stats, nil
}
