package server

import (
	"encoding/json"
	"fmt"
	"time"

	"repro"
)

// Wire format of the v1 HTTP API. The JSON schema is versioned with the
// route prefix (/v1/) and regression-locked by the service_annotate.golden
// fixture: changing a field name or adding a field to a response is a wire
// format change and must update the golden file deliberately.

// AnnotateRequestJSON is the body of POST /v1/annotate.
type AnnotateRequestJSON struct {
	// Table is the table to annotate, in the internal/table JSON
	// interchange format: {"name", "columns": [{"header", "type"}],
	// "rows": [[...]]}.
	Table json.RawMessage `json:"table"`
	// Types restricts Γ; omit to target all twelve types.
	Types []string `json:"types,omitempty"`
	// K is the snippets-per-query count; omit for the paper's 10.
	K int `json:"k,omitempty"`
	// Postprocess and Disambiguate override the service defaults (both
	// on); omit to keep the default.
	Postprocess  *bool `json:"postprocess,omitempty"`
	Disambiguate *bool `json:"disambiguate,omitempty"`
	// Trace additionally returns per-cell decision explanations.
	Trace bool `json:"trace,omitempty"`
	// Geocode additionally resolves Location-column cells against the
	// gazetteer into geo_annotations.
	Geocode bool `json:"geocode,omitempty"`
}

// BatchRequestJSON is the body of POST /v1/annotate:batch.
type BatchRequestJSON struct {
	Requests []AnnotateRequestJSON `json:"requests"`
}

// AnnotationJSON is one annotated cell.
type AnnotationJSON struct {
	Row   int     `json:"row"`
	Col   int     `json:"col"`
	Type  string  `json:"type"`
	Score float64 `json:"score"`
}

// StatsJSON mirrors repro.Stats.
type StatsJSON struct {
	Rows      int            `json:"rows"`
	Cols      int            `json:"cols"`
	Annotated int            `json:"annotated"`
	Queries   int            `json:"queries"`
	Batches   int            `json:"batches"`
	Skipped   map[string]int `json:"skipped,omitempty"`
}

// CacheJSON mirrors repro.CacheStats.
type CacheJSON struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// TimingJSON reports the request's wall-clock cost in milliseconds.
type TimingJSON struct {
	TotalMs float64 `json:"total_ms"`
}

// GeoAnnotationJSON is one Location-column cell resolved against the
// gazetteer.
type GeoAnnotationJSON struct {
	Row        int     `json:"row"`
	Col        int     `json:"col"`
	Location   string  `json:"location"`
	Kind       string  `json:"kind"`
	City       string  `json:"city,omitempty"`
	Candidates int     `json:"candidates"`
	Score      float64 `json:"score"`
}

// AnnotateResponseJSON is the body of a successful POST /v1/annotate.
type AnnotateResponseJSON struct {
	Annotations    []AnnotationJSON    `json:"annotations"`
	ColumnTypes    map[string]string   `json:"column_types,omitempty"`
	Trace          []string            `json:"trace,omitempty"`
	GeoAnnotations []GeoAnnotationJSON `json:"geo_annotations,omitempty"`
	Stats          StatsJSON           `json:"stats"`
	Cache          CacheJSON           `json:"cache"`
	Timing         TimingJSON          `json:"timing"`
}

// GeocodeRequestJSON is the body of POST /v1/geocode.
type GeocodeRequestJSON struct {
	// Table is the table to geocode, in the internal/table JSON
	// interchange format.
	Table json.RawMessage `json:"table"`
}

// GeoStatsJSON mirrors repro.GeoStats.
type GeoStatsJSON struct {
	LocationCells int `json:"location_cells"`
	Resolved      int `json:"resolved"`
	Ambiguous     int `json:"ambiguous"`
}

// GeocodeResponseJSON is the body of a successful POST /v1/geocode.
type GeocodeResponseJSON struct {
	Annotations []GeoAnnotationJSON `json:"annotations"`
	Stats       GeoStatsJSON        `json:"stats"`
	Timing      TimingJSON          `json:"timing"`
}

// BatchResponseJSON is the body of a successful POST /v1/annotate:batch.
type BatchResponseJSON struct {
	Responses []AnnotateResponseJSON `json:"responses"`
}

// GeocodeBatchRequestJSON is the body of POST /v1/geocode:batch.
type GeocodeBatchRequestJSON struct {
	Requests []GeocodeRequestJSON `json:"requests"`
}

// GeocodeBatchResponseJSON is the body of a successful POST
// /v1/geocode:batch; Responses is in request order.
type GeocodeBatchResponseJSON struct {
	Responses []GeocodeResponseJSON `json:"responses"`
}

// ErrorJSON is the body of every non-2xx response.
type ErrorJSON struct {
	Error ErrorBodyJSON `json:"error"`
}

// ErrorBodyJSON carries the typed error: Code is machine-matchable
// ("invalid_json", "invalid_request", "table_too_large", "over_capacity",
// "cancelled"), Message is human-readable.
type ErrorBodyJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// StatzJSON is the body of GET /statz.
type StatzJSON struct {
	UptimeMs    float64       `json:"uptime_ms"`
	InFlight    int           `json:"in_flight"`
	MaxInFlight int           `json:"max_in_flight"`
	Served      int64         `json:"served"`
	Rejected    int64         `json:"rejected"`
	Failed      int64         `json:"failed"`
	Snapshot    *SnapshotFull `json:"snapshot,omitempty"`
	Search      *SearchFull   `json:"search,omitempty"`
	Cache       *CacheFull    `json:"cache,omitempty"`
	Geo         *GeoFull      `json:"geo,omitempty"`
	Router      *RouterFull   `json:"router,omitempty"`
}

// RouterFull is the router tier's own /statz section, absent from a worker's
// statz. The surrounding StatzJSON counters are the fleet-wide sums of every
// reachable worker's counters (rejected additionally includes edge sheds);
// Workers carries the per-worker breakdown.
type RouterFull struct {
	WorkersTotal   int                `json:"workers_total"`
	WorkersHealthy int                `json:"workers_healthy"`
	Replication    int                `json:"replication"`
	HedgeDelayMs   float64            `json:"hedge_delay_ms"`
	HedgesFired    int64              `json:"hedges_fired"`
	HedgesWon      int64              `json:"hedges_won"`
	Retries        int64              `json:"retries"`
	Routed         int64              `json:"routed"`
	RejectedAtEdge int64              `json:"rejected_at_edge"`
	NoWorkerErrors int64              `json:"no_worker_errors"`
	UpstreamErrors int64              `json:"upstream_errors"`
	Workers        []RouterWorkerJSON `json:"workers"`
}

// RouterWorkerJSON is one worker's router-side view: health-state counters
// plus the worker's own served count when its /statz was reachable.
type RouterWorkerJSON struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	InFlight  int64  `json:"in_flight"`
	Ejections int64  `json:"ejections"`
	Reachable bool   `json:"reachable"`
	Served    int64  `json:"served"`
	LastError string `json:"last_error,omitempty"`
}

// SnapshotFull says where the serving world came from: "built" (full
// in-process world build) or "snapshot" (booted from a TSNP bundle), with
// the world's identity, the bundle load cost (snapshot boots only) and the
// number of completed hot-reload swaps since the server started.
type SnapshotFull struct {
	Source      string  `json:"source"`
	Seed        int64   `json:"seed"`
	Scale       string  `json:"scale"`
	Classifier  string  `json:"classifier"`
	LoadMs      float64 `json:"load_ms,omitempty"`
	ReloadEpoch int64   `json:"reload_epoch"`
}

// GeoFull is the geo subsystem's point-in-time serving state: the frozen
// gazetteer's size, the number of POST /v1/geocode requests served, the
// cells resolved across both that endpoint and annotate requests that
// carried the geocode flag, and the component-parallel resolver's
// decomposition counters — components resolved cumulatively, the largest
// component seen, and the high-water mark of pooled per-component scratch
// bytes held at once (the stage's bounded working memory).
type GeoFull struct {
	GazetteerLocations int   `json:"gazetteer_locations"`
	Requests           int64 `json:"requests"`
	CellsResolved      int64 `json:"cells_resolved"`
	Components         int64 `json:"components"`
	LargestComponent   int64 `json:"largest_component"`
	PeakScratchBytes   int64 `json:"peak_scratch_bytes"`
}

// SearchFull is the search engine's point-in-time serving state: total and
// batched query counts, and the per-shard fan-out when the index is sharded.
type SearchFull struct {
	IndexDocs      int     `json:"index_docs"`
	Queries        int     `json:"queries"`
	Batches        int     `json:"batches"`
	BatchedQueries int     `json:"batched_queries"`
	AvgBatchSize   float64 `json:"avg_batch_size"`
	Shards         int     `json:"shards"`
	ShardQueries   []int64 `json:"shard_queries,omitempty"`
}

// CacheFull is the shared verdict cache's point-in-time state; absent when
// the service was built without a shared cache. Evictions counts entries
// dropped by the entry cap, Expirations entries dropped past their TTL; both
// stay 0 on an unbounded cache (the default).
type CacheFull struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Entries     int     `json:"entries"`
	HitRate     float64 `json:"hit_rate"`
	Evictions   int64   `json:"evictions"`
	Expirations int64   `json:"expirations"`
}

// HealthJSON is the body of GET /healthz.
type HealthJSON struct {
	Status string `json:"status"`
}

// table is the wire request's table, as sent; request joins the wire request
// to that table, parsed.
func (w *AnnotateRequestJSON) table() json.RawMessage { return w.Table }
func (w *GeocodeRequestJSON) table() json.RawMessage  { return w.Table }

func (w *AnnotateRequestJSON) request(tbl *repro.Table) *repro.AnnotateRequest {
	return &repro.AnnotateRequest{
		Table:        tbl,
		Types:        w.Types,
		K:            w.K,
		Postprocess:  repro.ToggleOf(w.Postprocess),
		Disambiguate: repro.ToggleOf(w.Disambiguate),
		Trace:        w.Trace,
		Geocode:      w.Geocode,
	}
}

func (w *GeocodeRequestJSON) request(tbl *repro.Table) *repro.GeocodeRequest {
	return &repro.GeocodeRequest{Table: tbl}
}

// geoToWire converts the service geo annotations to their wire form.
func geoToWire(gas []repro.GeoAnnotation) []GeoAnnotationJSON {
	if len(gas) == 0 {
		return nil
	}
	out := make([]GeoAnnotationJSON, len(gas))
	for i, ga := range gas {
		out[i] = GeoAnnotationJSON{
			Row:        ga.Row,
			Col:        ga.Col,
			Location:   ga.Location,
			Kind:       ga.Kind,
			City:       ga.City,
			Candidates: ga.Candidates,
			Score:      ga.Score,
		}
	}
	return out
}

// geocodeToWire converts a service geocode response to its wire form.
func geocodeToWire(resp *repro.GeocodeResponse) GeocodeResponseJSON {
	out := GeocodeResponseJSON{
		// Annotations is always present in the wire format, even when
		// empty, so clients can range over it without a nil check.
		Annotations: geoToWire(resp.Annotations),
		Stats: GeoStatsJSON{
			LocationCells: resp.Stats.LocationCells,
			Resolved:      resp.Stats.Resolved,
			Ambiguous:     resp.Stats.Ambiguous,
		},
		Timing: TimingJSON{TotalMs: float64(resp.Timing.Total) / float64(time.Millisecond)},
	}
	if out.Annotations == nil {
		out.Annotations = []GeoAnnotationJSON{}
	}
	return out
}

// toWire converts a service response to its wire form.
func toWire(resp *repro.AnnotateResponse) AnnotateResponseJSON {
	out := AnnotateResponseJSON{
		// Annotations is always present in the wire format, even when
		// empty, so clients can range over it without a nil check.
		Annotations:    make([]AnnotationJSON, len(resp.Annotations)),
		Trace:          resp.Trace,
		GeoAnnotations: geoToWire(resp.GeoAnnotations),
		Stats: StatsJSON{
			Rows:      resp.Stats.Rows,
			Cols:      resp.Stats.Cols,
			Annotated: resp.Stats.Annotated,
			Queries:   resp.Stats.Queries,
			Batches:   resp.Stats.Batches,
			Skipped:   resp.Stats.Skipped,
		},
		Cache:  CacheJSON{Hits: resp.CacheStats.Hits, Misses: resp.CacheStats.Misses},
		Timing: TimingJSON{TotalMs: float64(resp.Timing.Total) / float64(time.Millisecond)},
	}
	for i, ann := range resp.Annotations {
		out.Annotations[i] = AnnotationJSON{Row: ann.Row, Col: ann.Col, Type: ann.Type, Score: ann.Score}
	}
	if len(resp.ColumnTypes) > 0 {
		out.ColumnTypes = make(map[string]string, len(resp.ColumnTypes))
		for col, typ := range resp.ColumnTypes {
			out.ColumnTypes[fmt.Sprint(col)] = typ
		}
	}
	return out
}
