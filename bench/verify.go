package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strconv"

	"repro"
	"repro/internal/server"
)

// errMismatch marks a response that differs from its reference; the
// operation counts as failed.
var errMismatch = errors.New("response differs from its reference")

// outcome is the part of a response that depends only on the request: what
// the output check compares and the digest hashes. Left out, because they
// depend on the schedule or on what ran before: every timing, Stats.Batches
// (chunking follows the worker count), the cache hit/miss counters,
// GeoStats.PeakScratchBytes (a high-water mark across racing workers) and,
// when the service runs with a shared cache, Stats.Queries (only the misses
// reach the engine).
type outcome struct {
	Annotations []repro.Annotation
	ColumnTypes map[int]string
	Geo         []repro.GeoAnnotation
	Skipped     map[string]int

	Rows, Cols, Annotated, Queries     int
	LocationCells, Resolved, Ambiguous int
	Components, LargestComponent       int
}

// mask says which further fields an outcome cannot carry on a workload.
type mask struct {
	// queries drops Stats.Queries: set wherever a shared cache answers some
	// of them.
	queries bool
	// wire drops what the HTTP wire format does not carry: the gazetteer ID
	// of a geo annotation and the component statistics of a geocode.
	wire bool
}

func annotateOutcome(r *repro.AnnotateResponse, m mask) outcome {
	o := outcome{
		Annotations: r.Annotations,
		ColumnTypes: r.ColumnTypes,
		Geo:         maskGeo(r.GeoAnnotations, m),
		Skipped:     r.Stats.Skipped,
		Rows:        r.Stats.Rows,
		Cols:        r.Stats.Cols,
		Annotated:   r.Stats.Annotated,
	}
	if !m.queries {
		o.Queries = r.Stats.Queries
	}
	return o
}

func geocodeOutcome(r *repro.GeocodeResponse, m mask) outcome {
	o := outcome{
		Geo:           maskGeo(r.Annotations, m),
		LocationCells: r.Stats.LocationCells,
		Resolved:      r.Stats.Resolved,
		Ambiguous:     r.Stats.Ambiguous,
	}
	if !m.wire {
		o.Components = r.Stats.Components
		o.LargestComponent = r.Stats.LargestComponent
	}
	return o
}

func maskGeo(gas []repro.GeoAnnotation, m mask) []repro.GeoAnnotation {
	if !m.wire {
		return gas
	}
	out := make([]repro.GeoAnnotation, len(gas))
	for i, ga := range gas {
		ga.Loc = 0
		out[i] = ga
	}
	return out
}

func wireGeo(gas []server.GeoAnnotationJSON) []repro.GeoAnnotation {
	out := make([]repro.GeoAnnotation, len(gas))
	for i, ga := range gas {
		out[i] = repro.GeoAnnotation{Row: ga.Row, Col: ga.Col, Location: ga.Location, Kind: ga.Kind,
			City: ga.City, Candidates: ga.Candidates, Score: ga.Score}
	}
	return out
}

// wireAnnotateOutcome reads the outcome off a POST /v1/annotate response. A
// column_types key that is not a column number cannot match any reference.
func wireAnnotateOutcome(w *server.AnnotateResponseJSON, m mask) (outcome, error) {
	o := outcome{
		Annotations: make([]repro.Annotation, len(w.Annotations)),
		Geo:         wireGeo(w.GeoAnnotations),
		Skipped:     w.Stats.Skipped,
		Rows:        w.Stats.Rows,
		Cols:        w.Stats.Cols,
		Annotated:   w.Stats.Annotated,
	}
	for i, a := range w.Annotations {
		o.Annotations[i] = repro.Annotation{Row: a.Row, Col: a.Col, Type: a.Type, Score: a.Score}
	}
	if len(w.ColumnTypes) > 0 {
		o.ColumnTypes = make(map[int]string, len(w.ColumnTypes))
		for k, v := range w.ColumnTypes {
			col, err := strconv.Atoi(k)
			if err != nil {
				return outcome{}, errMismatch
			}
			o.ColumnTypes[col] = v
		}
	}
	if !m.queries {
		o.Queries = w.Stats.Queries
	}
	return o, nil
}

func wireGeocodeOutcome(w *server.GeocodeResponseJSON) outcome {
	return outcome{
		Geo:           wireGeo(w.Annotations),
		LocationCells: w.Stats.LocationCells,
		Resolved:      w.Stats.Resolved,
		Ambiguous:     w.Stats.Ambiguous,
	}
}

// equal compares two outcomes field by field. It allocates nothing: it runs
// once per measured operation.
func (a *outcome) equal(b *outcome) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Annotated != b.Annotated || a.Queries != b.Queries ||
		a.LocationCells != b.LocationCells || a.Resolved != b.Resolved || a.Ambiguous != b.Ambiguous ||
		a.Components != b.Components || a.LargestComponent != b.LargestComponent ||
		len(a.Annotations) != len(b.Annotations) || len(a.Geo) != len(b.Geo) ||
		len(a.ColumnTypes) != len(b.ColumnTypes) || len(a.Skipped) != len(b.Skipped) {
		return false
	}
	for i := range a.Annotations {
		if a.Annotations[i] != b.Annotations[i] {
			return false
		}
	}
	for i := range a.Geo {
		if a.Geo[i] != b.Geo[i] {
			return false
		}
	}
	for k, v := range a.ColumnTypes {
		if w, ok := b.ColumnTypes[k]; !ok || w != v {
			return false
		}
	}
	for k, v := range a.Skipped {
		if w, ok := b.Skipped[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// digest is the sha256 of the reference set in pool order. Two commits that
// print the same digest for the same workload and seed produced the same
// outputs.
func digest(refs []outcome) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range refs {
		if err := enc.Encode(&refs[i]); err != nil {
			panic(err) // unreachable: an outcome holds only strings, ints and finite floats
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
