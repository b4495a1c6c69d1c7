package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the harness emits. The two lists below are the
// harness's side of BENCHMARK.json: a test checks that the file and these
// lists name the same metrics with the same units and directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median by which the metric may worsen
}

// endToEndDefs are the metrics a user of the annotator sees that two sets of
// runs of the same code agree on. The bounds come from the run-to-run spread
// measured on the 2-core shared host the benchmark was defined on (README:
// "Steadiness"); setup_s has the largest, because one run affords only a few
// set-ups.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tables_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// demotedDefs were end-to-end metrics until two sets of runs of the same code
// could not agree on them (README: "Steadiness"): the median latency (on
// geocode_huge) and the CPU per table (on annotate_cold) spread past a quarter
// of their medians when the shared host's speed drifted, and on serve_mixed
// the collector's cycles cover about a tenth of the measured phase, so the
// 90th percentile falls now inside them and now outside. They are per-layer
// metrics now, without a bound, but every untraced run still measures and
// prints them.
var demotedDefs = []metricDef{
	{"lat_p50_ms", "ms", "lower", 0},
	{"lat_p90_ms", "ms", "lower", 0},
	{"cpu_ms_per_table", "ms", "lower", 0},
}

// perLayerDefs are the metrics of single layers, module name first. They
// carry no bound; bench/README.md says which end-to-end metric each should
// move, on which workload.
var perLayerDefs = []metricDef{
	{"search.queries_per_table", "count", "lower", 0},
	{"search.us_per_query", "us", "lower", 0},
	{"search.busy_ms_per_table", "ms", "lower", 0},
	{"search.results_per_query", "count", "higher", 0},

	{"textproc.snippets_per_table", "count", "lower", 0},
	{"textproc.extract_us_per_snippet", "us", "lower", 0},
	{"textproc.busy_ms_per_table", "ms", "lower", 0},
	{"classify.predict_us_per_snippet", "us", "lower", 0},
	{"classify.busy_ms_per_table", "ms", "lower", 0},

	{"qcache.hits", "count", "higher", 0},
	{"qcache.misses", "count", "lower", 0},
	{"qcache.hit_ratio", "ratio", "higher", 0},
	{"qcache.get_ns", "ns", "lower", 0},
	{"qcache.evictions", "count", "lower", 0},

	{"annotate.total_ms_per_table", "ms", "lower", 0},
	{"annotate.self_ms_per_table", "ms", "lower", 0},
	{"annotate.share_search", "ratio", "lower", 0},
	{"annotate.share_textproc", "ratio", "lower", 0},
	{"annotate.share_classify", "ratio", "lower", 0},
	{"annotate.share_geo", "ratio", "lower", 0},
	{"annotate.share_self", "ratio", "lower", 0},

	{"gazetteer.geocode_us_per_cell", "us", "lower", 0},
	{"gazetteer.candidates_per_cell", "count", "lower", 0},
	{"disambig.build_ms", "ms", "lower", 0},
	{"disambig.resolve_ms", "ms", "lower", 0},
	{"disambig.us_per_cell", "us", "lower", 0},
	{"disambig.nodes", "count", "lower", 0},
	{"disambig.components", "count", "higher", 0},
	{"disambig.largest_component", "count", "lower", 0},
	{"disambig.peak_scratch_bytes", "bytes", "lower", 0},

	{"table.decode_us_per_table", "us", "lower", 0},
	{"server.self_ms", "ms", "lower", 0},
	{"server.resp_bytes_per_table", "bytes", "lower", 0},
	{"server.shed_429", "count", "lower", 0},
	{"router.hop_ms", "ms", "lower", 0},
	{"router.hedges_fired", "count", "lower", 0},
	{"router.hedges_won", "count", "lower", 0},
	{"router.retries", "count", "lower", 0},
	{"serve.annotate_p50_ms", "ms", "lower", 0},
	{"serve.geocode_p50_ms", "ms", "lower", 0},
	{"serve.lat_p99_ms", "ms", "lower", 0},
	{"serve.lat_p999_ms", "ms", "lower", 0},

	{"world.build_s", "s", "lower", 0},
	{"snapshot.write_s", "s", "lower", 0},
	{"snapshot.load_s", "s", "lower", 0},
	{"snapshot.bytes", "bytes", "lower", 0},

	demotedDefs[0], demotedDefs[1], demotedDefs[2],

	{"load.sched_lag_p99_ms", "ms", "lower", 0},
	{"load.offered_per_s", "1/s", "higher", 0},
	{"proc.alloc_kb_per_table", "KB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms_total", "ms", "lower", 0},
	{"proc.goroutines_end", "count", "lower", 0},
	{"proc.trace_overhead_frac", "ratio", "lower", 0},
}

// metricValue is one emitted metric in the result line's form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one list of definitions and insists that
// each is set exactly once: emitting an unknown name, or a name twice, is a
// bug in the harness and panics.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	known := false
	for _, d := range m.defs {
		if d.Name == name {
			known = true
			break
		}
	}
	if !known {
		panic("bench: metric " + name + " is not defined")
	}
	if _, dup := m.vals[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over an empty base; JSON cannot carry NaN
	}
	m.vals[name] = v
}

// values returns every defined metric with its unit, or an error naming the
// ones never set.
func (m *metricSet) values() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(m.defs))
	var missing []string
	for _, d := range m.defs {
		v, ok := m.vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics never emitted: %v", missing)
	}
	return out, nil
}

// percentile reads the p-quantile (0 < p <= 1) of an ascending slice by the
// nearest-rank rule: the smallest value with at least p of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// supportsPercentile reports whether n samples leave at least ten beyond the
// p-quantile — the rule that decides the highest percentile worth reporting.
func supportsPercentile(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method). It needs
// at least two values.
func quartileSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(med)
}

// ratio is a/b, or 0 over an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
