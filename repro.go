// Package repro is a from-scratch Go reproduction of "Entity Discovery and
// Annotation in Tables" (Quercini & Reynaud, EDBT 2013): an algorithm that
// finds the rows and cells of a table containing entities of ontology types
// by querying a (simulated) web search engine with cell content and
// classifying the returned snippets, then cleaning the result with a
// column-coherence post-processing step and a spatial toponym-voting
// disambiguator.
//
// The v1 API is a context-first service built with functional options and a
// versioned request/response model:
//
//	svc, err := repro.New(ctx, repro.WithSeed(7), repro.WithParallelism(4))
//	if err != nil {
//		log.Fatal(err)
//	}
//	resp, err := svc.Annotate(ctx, &repro.AnnotateRequest{Table: tbl})
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, ann := range resp.Annotations {
//		fmt.Printf("T(%d,%d) -> %s (%.2f)\n", ann.Row, ann.Col, ann.Type, ann.Score)
//	}
//
// AnnotateBatch annotates many tables over a bounded worker pool. cmd/serve
// exposes the same request/response model over HTTP/JSON (POST /v1/annotate).
// New is the one way to construct the pipeline.
//
// The service wires the full pipeline over the built-in synthetic universe
// (see DESIGN.md for the substitution table); the underlying packages live
// in internal/ and are exercised through the examples, the cmd/ tools, and
// the root benchmark suite.
package repro

import (
	"repro/internal/annotate"
	"repro/internal/eval"
	"repro/internal/table"
)

// Convenient aliases so facade users work with one import.
type (
	// Table is a GFT-style table (§3).
	Table = table.Table
	// Column is a table column with a GFT type.
	Column = table.Column
	// Annotation is one annotated cell with its Eq. 1 score.
	Annotation = annotate.Annotation
	// GeoAnnotation is one Location-column cell resolved against the
	// gazetteer (AnnotateRequest.Geocode / Service.Geocode).
	GeoAnnotation = annotate.GeoAnnotation
)

// GFT column types re-exported for table construction.
const (
	Text     = table.Text
	Number   = table.Number
	Location = table.Location
	Date     = table.Date
)

// Types returns Γ, the twelve annotation types of the evaluation.
func Types() []string { return eval.TypeStrings() }
