package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/gazetteer"
	"repro/internal/server"
	"repro/internal/table"
)

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.9, 7},
		{"p50 of 1..100", hundred, 0.50, 50},
		{"p90 of 1..100", hundred, 0.90, 90},
		{"p99 of 1..100", hundred, 0.99, 99},
		{"p100 of 1..100", hundred, 1, 100},
		{"p50 of four", []float64{1, 2, 3, 4}, 0.5, 2},
		{"p90 of four", []float64{1, 2, 3, 4}, 0.9, 4},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSupportsPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true},  // exactly ten beyond the 90th
		{99, 0.90, false},  // nine beyond
		{271, 0.90, true},  // geocode_huge's sample count at 10 s
		{271, 0.99, false}, // two beyond
		{3000, 0.99, true},
		{3000, 0.999, false},
		{0, 0.5, false},
	} {
		if got := supportsPercentile(tc.n, tc.p); got != tc.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if got, want := quartileSpread([]float64{40, 10, 20}), 30.0/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(10,20,40) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("quartileSpread of one value = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %v", got)
	}
}

func TestMetricSet(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	m := newMetricSet(defs)
	m.set("a", math.NaN())
	if _, err := m.values(); err == nil || !strings.Contains(err.Error(), "b") {
		t.Errorf("values with b missing: err = %v", err)
	}
	m.set("b", 2)
	vals, err := m.values()
	if err != nil {
		t.Fatal(err)
	}
	if want := (map[string]metricValue{"a": {0, "ms"}, "b": {2, "count"}}); !reflect.DeepEqual(vals, want) {
		t.Errorf("values = %v, want %v", vals, want)
	}
	for _, name := range []string{"b", "nope"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set(%q) did not panic", name)
				}
			}()
			m.set(name, 1)
		}()
	}
}

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness keeps the file at the root and the lists in
// metrics.go naming the same things.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != int(defaultSeconds) {
		t.Errorf("run_seconds = %d, harness default is %v", b.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, harness has %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end = %v\nharness has %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layers, perLayerDefs) {
		t.Errorf("per_layer = %v\nharness has %v", layers, perLayerDefs)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
	largest := 0.0
	for _, d := range endToEndDefs {
		largest = max(largest, d.Bound)
	}
	if endToEndDefs[0].Name != "setup_s" || endToEndDefs[0].Bound != largest {
		t.Errorf("setup_s must carry the largest bound (%v)", largest)
	}
}

func TestSelfTimes(t *testing.T) {
	//  1 root [0,100]
	//  ├ 2 [100,130]   (replayed after the root: outside its interval)
	//  │  └ 4 [160,170]
	//  └ 3 [130,160]
	//  5 no parent [170,200]
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 100, End: 130},
		{ID: 3, Parent: 1, Start: 130, End: 160},
		{ID: 4, Parent: 2, Start: 160, End: 170},
		{ID: 5, Parent: 0, Start: 170, End: 200},
	}
	want := []time.Duration{40, 20, 30, 10, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Children that cost more than their parent leave a negative self time.
	over := []span{{ID: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Start: 10, End: 25}}
	if got := selfTimes(over); got[0] != -5 {
		t.Errorf("self time of an over-explained span = %v, want -5", got[0])
	}

	tr := &tracer{t0: time.Now(), pass: "busy"}
	root := tr.begin("root", 0, 1)
	child := tr.begin("child", root, 1)
	if d := tr.end(child); d < 0 || tr.spans[child-1].Parent != root || tr.spans[child-1].Pass != "busy" {
		t.Errorf("tracer recorded %+v", tr.spans[child-1])
	}
	tr.end(root)
	if tr.spans[root-1].dur() < tr.spans[child-1].dur() {
		t.Errorf("root %v shorter than the child it encloses %v", tr.spans[root-1].dur(), tr.spans[child-1].dur())
	}
}

func TestExplainedQuery(t *testing.T) {
	for _, tc := range []struct {
		line string
		want string
		ok   bool
	}{
		{`T(1,2) "Louvre" query="Louvre Paris" k=10 votes[museum=9] -> museum (0.90)`, "Louvre Paris", true},
		{`T(3,1) "say \"hi\" query=" query="say \"hi\" query= Rome" k=0 votes[] abstained`, `say "hi" query= Rome`, true},
		{`T(1,3) "12" skipped: number`, "", false},
		{`garbage`, "", false},
		{`T(1,1) unquoted`, "", false},
		{`T(1,1) "x" query=unquoted`, "", false},
	} {
		got, ok := explainedQuery(tc.line)
		if got != tc.want || ok != tc.ok {
			t.Errorf("explainedQuery(%q) = %q, %v; want %q, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
	lines := []string{
		`T(1,1) "a" query="a" k=1 votes[] abstained`,
		`T(2,1) "b" query="b" k=1 votes[] abstained`,
		`T(3,1) "a" query="a" k=1 votes[] abstained`,
		`T(1,2) "7" skipped: number`,
	}
	if got := uniqueQueries(lines); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("uniqueQueries = %v", got)
	}
}

// testWorld is a small stand-in for the canonical inputs, so the generator
// tests need no world build.
func testWorld() ([]*table.Table, *addressBook) {
	var canonical []*table.Table
	for i, rows := range []int{3, 8, 20} {
		tb := table.New("gft-"+string(rune('a'+i)),
			table.Column{Header: "Name", Type: table.Text},
			table.Column{Header: "Where", Type: table.Location},
			table.Column{Header: "Seats", Type: table.Number})
		for r := 0; r < rows; r++ {
			if err := tb.AppendRow("Name "+string(rune('A'+r)), "Main Street, Springfield", "12"); err != nil {
				panic(err)
			}
		}
		canonical = append(canonical, tb)
	}
	book := newAddressBook(gazetteer.Synthetic(7).Freeze())
	return canonical, book
}

func TestGeneratorsAreSeeded(t *testing.T) {
	canonical, book := testWorld()
	if len(book.cities) == 0 {
		t.Fatal("address book is empty")
	}
	poolBytes := func(seed int64) []byte {
		var buf bytes.Buffer
		for _, b := range servePool(seed, canonical, book) {
			buf.WriteString(b.path)
			buf.Write(b.data)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(poolBytes(1), poolBytes(1)) {
		t.Error("the same seed built two different body pools")
	}
	if bytes.Equal(poolBytes(1), poolBytes(2)) {
		t.Error("two seeds built the same body pool")
	}
	a, b, c := schedule(1, 300, 2*time.Second, 1024), schedule(1, 300, 2*time.Second, 1024), schedule(2, 300, 2*time.Second, 1024)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds drew the same schedule")
	}
	if n := len(a); n < 450 || n > 750 {
		t.Errorf("300 req/s over 2 s drew %d arrivals", n)
	}
	top, prev := 0, time.Duration(0)
	for _, arr := range a {
		if arr.due < prev || arr.idx < 0 || arr.idx >= 1024 {
			t.Fatalf("arrival %+v out of order or out of range", arr)
		}
		prev = arr.due
		if arr.idx < 10 {
			top++
		}
	}
	if share := float64(top) / float64(len(a)); share < 0.35 || share > 0.65 {
		t.Errorf("the ten hottest ranks drew %.2f of the arrivals; Zipf(1.1) over 1024 gives about half", share)
	}
	if !reflect.DeepEqual(tableOrder(1, 0, 39), tableOrder(1, 0, 39)) || reflect.DeepEqual(tableOrder(1, 0, 39), tableOrder(1, 1, 39)) ||
		reflect.DeepEqual(tableOrder(1, 0, 39), tableOrder(2, 0, 39)) {
		t.Error("tableOrder must depend on the seed and the caller, and on nothing else")
	}
	h1, h2 := hugePool(1, book), hugePool(2, book)
	if !bytes.Equal(tableJSON(h1[0]), tableJSON(hugePool(1, book)[0])) || bytes.Equal(tableJSON(h1[0]), tableJSON(h2[0])) {
		t.Error("hugePool must depend on the seed, and on nothing else")
	}
}

func TestServePoolShape(t *testing.T) {
	canonical, book := testWorld()
	pool := servePool(1, canonical, book)
	if len(pool) != servePoolSize {
		t.Fatalf("pool has %d bodies", len(pool))
	}
	geocodes, suffixed := 0, 0
	for i, b := range pool {
		if b.geocode {
			geocodes++
			if b.path != "/v1/geocode" || b.tbl.NumRows() != serveGeoRows || b.tbl.NumCols() != serveGeoCols {
				t.Fatalf("body %d: geocode body of %dx%d on %s", i, b.tbl.NumRows(), b.tbl.NumCols(), b.path)
			}
			if b.tbl.Rows[0][0] == b.tbl.Rows[1][0] && b.tbl.Rows[1][0] == b.tbl.Rows[2][0] && b.tbl.Rows[2][0] == b.tbl.Rows[3][0] {
				t.Fatalf("body %d: rows repeat one address; a row's slice was reused", i)
			}
			var req server.GeocodeRequestJSON
			if err := json.Unmarshal(b.data, &req); err != nil {
				t.Fatalf("body %d: %v", i, err)
			}
			continue
		}
		if rows := b.tbl.NumRows(); rows > serveWindowRows || rows < 3 {
			t.Fatalf("body %d: annotate window of %d rows", i, rows)
		}
		var req server.AnnotateRequestJSON
		if err := json.Unmarshal(b.data, &req); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		back, err := table.ReadJSON(bytes.NewReader(req.Table))
		if err != nil || !reflect.DeepEqual(back.Rows, b.tbl.Rows) {
			t.Fatalf("body %d: table does not round-trip: %v", i, err)
		}
		if strings.HasSuffix(b.tbl.Rows[0][0], " "+strconv.Itoa(i)) {
			suffixed++
			if b.tbl.Rows[0][1] != "Main Street, Springfield" || b.tbl.Rows[0][2] != "12" {
				t.Fatalf("body %d: the suffix must touch Text cells only, row is %v", i, b.tbl.Rows[0])
			}
		}
	}
	if geocodes*serveGeoEvery != servePoolSize-servePoolSize%serveGeoEvery {
		t.Errorf("%d geocode bodies in a pool of %d", geocodes, servePoolSize)
	}
	if annotates := servePoolSize - geocodes; suffixed < annotates*2/5 || suffixed > annotates*3/5 {
		t.Errorf("%d of %d annotate bodies carry the unique suffix; want about half", suffixed, annotates)
	}
}

func TestOutcomeEqualAndDigest(t *testing.T) {
	resp := &repro.AnnotateResponse{
		Annotations:    []repro.Annotation{{Row: 1, Col: 1, Type: "museum", Score: 0.9}, {Row: 2, Col: 1, Type: "hotel", Score: 0.6}},
		ColumnTypes:    map[int]string{1: "museum"},
		GeoAnnotations: []repro.GeoAnnotation{{Row: 1, Col: 2, Location: "Main Street, Springfield", Kind: "street", City: "Springfield", Candidates: 2, Score: 0.7, Loc: 17}},
		Stats:          repro.Stats{Rows: 2, Cols: 2, Annotated: 2, Queries: 4, Batches: 2, Skipped: map[string]int{"number": 1}},
		CacheStats:     repro.CacheStats{Hits: 1, Misses: 3},
		Timing:         repro.Timing{Total: time.Millisecond},
	}
	ref := annotateOutcome(resp, mask{})

	// What the schedule decides does not reach the outcome.
	other := *resp
	other.Stats.Batches, other.CacheStats, other.Timing = 9, repro.CacheStats{Hits: 4}, repro.Timing{Total: time.Hour}
	if got := annotateOutcome(&other, mask{}); !got.equal(&ref) || digest([]outcome{got}) != digest([]outcome{ref}) {
		t.Error("batches, cache counters or timing changed the outcome")
	}
	// What the request decides does.
	for name, mutate := range map[string]func(*repro.AnnotateResponse){
		"score": func(r *repro.AnnotateResponse) {
			r.Annotations = []repro.Annotation{r.Annotations[0], {Row: 2, Col: 1, Type: "hotel", Score: 0.7}}
		},
		"fewer":       func(r *repro.AnnotateResponse) { r.Annotations = r.Annotations[:1] },
		"column type": func(r *repro.AnnotateResponse) { r.ColumnTypes = map[int]string{1: "hotel"} },
		"column key":  func(r *repro.AnnotateResponse) { r.ColumnTypes = map[int]string{2: "museum"} },
		"geo": func(r *repro.AnnotateResponse) {
			g := r.GeoAnnotations[0]
			g.City = "Shelbyville"
			r.GeoAnnotations = []repro.GeoAnnotation{g}
		},
		"annotated":    func(r *repro.AnnotateResponse) { r.Stats.Annotated = 3 },
		"queries":      func(r *repro.AnnotateResponse) { r.Stats.Queries = 5 },
		"skipped":      func(r *repro.AnnotateResponse) { r.Stats.Skipped = map[string]int{"number": 2} },
		"skipped kind": func(r *repro.AnnotateResponse) { r.Stats.Skipped = map[string]int{"date": 1} },
	} {
		changed := *resp
		mutate(&changed)
		if got := annotateOutcome(&changed, mask{}); got.equal(&ref) {
			t.Errorf("a different %s passed the output check", name)
		} else if digest([]outcome{got}) == digest([]outcome{ref}) {
			t.Errorf("a different %s left the digest unchanged", name)
		}
	}
	// With a shared cache the query count depends on what ran before.
	changed := *resp
	changed.Stats.Queries = 0
	cachedRef, cachedGot := annotateOutcome(resp, mask{queries: true}), annotateOutcome(&changed, mask{queries: true})
	if !cachedGot.equal(&cachedRef) {
		t.Error("the query count reached a cached workload's outcome")
	}

	// The wire form of the same response matches the wire-masked reference.
	wire := server.AnnotateResponseJSON{
		Annotations:    []server.AnnotationJSON{{Row: 1, Col: 1, Type: "museum", Score: 0.9}, {Row: 2, Col: 1, Type: "hotel", Score: 0.6}},
		ColumnTypes:    map[string]string{"1": "museum"},
		GeoAnnotations: []server.GeoAnnotationJSON{{Row: 1, Col: 2, Location: "Main Street, Springfield", Kind: "street", City: "Springfield", Candidates: 2, Score: 0.7}},
		Stats:          server.StatsJSON{Rows: 2, Cols: 2, Annotated: 2, Queries: 1, Batches: 1, Skipped: map[string]int{"number": 1}},
	}
	m := mask{queries: true, wire: true}
	wireRef := annotateOutcome(resp, m)
	got, err := wireAnnotateOutcome(&wire, m)
	if err != nil || !got.equal(&wireRef) {
		t.Errorf("the wire form of the reference response failed the output check: %v", err)
	}
	if resp.GeoAnnotations[0].Loc != 17 {
		t.Error("masking the reference changed the response it was built from")
	}
	wire.ColumnTypes = map[string]string{"one": "museum"}
	if _, err := wireAnnotateOutcome(&wire, m); !errors.Is(err, errMismatch) {
		t.Errorf("a column_types key that is no number: err = %v", err)
	}

	geo := &repro.GeocodeResponse{
		Annotations: resp.GeoAnnotations,
		Stats:       repro.GeoStats{LocationCells: 1, Resolved: 1, Ambiguous: 1, Components: 1, LargestComponent: 2, PeakScratchBytes: 99},
	}
	geoRef := geocodeOutcome(geo, mask{})
	moved := *geo
	moved.Stats.PeakScratchBytes = 7
	if got := geocodeOutcome(&moved, mask{}); !got.equal(&geoRef) {
		t.Error("the scratch high-water mark reached the outcome")
	}
	moved.Stats.Components = 2
	if got := geocodeOutcome(&moved, mask{}); got.equal(&geoRef) {
		t.Error("a different component count passed the output check")
	}
	wireGeoRef := geocodeOutcome(geo, mask{wire: true})
	gotGeo := wireGeocodeOutcome(&server.GeocodeResponseJSON{
		Annotations: wire.GeoAnnotations,
		Stats:       server.GeoStatsJSON{LocationCells: 1, Resolved: 1, Ambiguous: 1},
	})
	if !gotGeo.equal(&wireGeoRef) {
		t.Error("the wire form of the reference geocode failed the output check")
	}
}

func TestPhaseWindowAndEndToEnd(t *testing.T) {
	p := &phase{
		start:   edge{at: time.Second, cpu: 10 * time.Millisecond},
		end:     edge{at: 3 * time.Second, cpu: 50 * time.Millisecond},
		peakRSS: 5 << 20,
	}
	p.inWindow([]sample{
		{at: 500 * time.Millisecond, lat: time.Millisecond},                        // warm-up
		{at: time.Second, lat: 2 * time.Millisecond},                               // first of the phase
		{at: 2 * time.Second, lat: 4 * time.Millisecond, bytes: 10},                // inside
		{at: 2500 * time.Millisecond, lat: 9 * time.Millisecond, err: errMismatch}, // failed
		{at: 3 * time.Second, lat: time.Millisecond},                               // after the end edge
	})
	if len(p.samples) != 3 || p.failed() != 1 {
		t.Fatalf("window kept %d samples, %d failed", len(p.samples), p.failed())
	}
	if got := p.latenciesMs(nil); !reflect.DeepEqual(got, []float64{2, 4}) {
		t.Errorf("latencies of the correct operations = %v", got)
	}
	vals, err := endToEnd(p, 1.5).values()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 1.5, "tables_per_s": 1, "peak_rss_mb": 5}
	for name, v := range want {
		if vals[name].Value != v {
			t.Errorf("%s = %v, want %v", name, vals[name].Value, v)
		}
	}
	// The demoted metrics come from the same phase, through the per-layer set.
	layers := newMetricSet(perLayerDefs)
	countMetrics(layers, &workload{}, p)
	for name, v := range map[string]float64{"lat_p50_ms": 2, "lat_p90_ms": 4, "cpu_ms_per_table": 20} {
		if layers.vals[name] != v {
			t.Errorf("%s = %v, want %v", name, layers.vals[name], v)
		}
	}
}

func TestRunClosedAndOpen(t *testing.T) {
	layer := func() layerCounts { return layerCounts{} }
	do := func(i int) (time.Time, int, error) {
		time.Sleep(time.Millisecond)
		if i == 2 {
			return time.Now(), 0, errMismatch
		}
		return time.Now(), i, nil
	}
	warmup, measure := 600*time.Millisecond, 300*time.Millisecond // the forced collection needs its lead
	p := runClosed(do, [][]int{{0, 1}, {1, 0}}, warmup, measure, layer)
	if len(p.samples) < 50 || p.failed() != 0 || p.peakRSS <= 0 {
		t.Errorf("closed loop: %d samples, %d failed, peak RSS %d", len(p.samples), p.failed(), p.peakRSS)
	}
	for _, s := range p.samples {
		if s.at < p.start.at || s.at >= p.end.at || s.lat < time.Millisecond {
			t.Fatalf("closed loop kept %+v outside [%v, %v)", s, p.start.at, p.end.at)
		}
	}

	sched := schedule(1, 200, warmup+measure, 3)
	p = runOpen(do, sched, 2, warmup, measure, layer)
	due := 0
	for _, a := range sched {
		if a.due >= p.start.at && a.due < p.end.at {
			due++
		}
	}
	if len(p.samples) != due || len(p.lags) != due || due < 20 {
		t.Errorf("open loop: %d samples and %d lags for %d arrivals due in the phase", len(p.samples), len(p.lags), due)
	}
	if p.failed() == 0 {
		t.Error("open loop: the failing rank never failed")
	}
	for _, s := range p.samples {
		if s.lat < time.Millisecond {
			t.Fatalf("open loop: latency %v is shorter than the operation", s.lat)
		}
	}
}

// fakeRunner answers like a child process would, with values that depend on
// the set being run.
func fakeRunner(scale *float64, failed int) runner {
	return func(cfg config) (*result, error) {
		res := &result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
		for i, d := range endToEndDefs {
			res.Metrics[d.Name] = metricValue{Value: *scale * float64(i+1) * float64(cfg.seed), Unit: d.Unit}
		}
		res.Unbounded = map[string]metricValue{"lat_p50_ms": {Value: 7 * float64(cfg.seed), Unit: "ms"}}
		return res, nil
	}
}

func TestRunSetAndCheck(t *testing.T) {
	var out bytes.Buffer
	scale := 1.0
	cfg := config{runs: 3, stdout: &out, stderr: &out}
	summary, err := runSet(cfg, fakeRunner(&scale, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		// Seeds 1..3 scale the values by 1..3, so every median is the seed-2 value.
		if got := summary[name]["tables_per_s"]; got != 4 {
			t.Errorf("%s: median tables_per_s = %v, want 4", name, got)
		}
	}
	if !strings.Contains(out.String(), "serve_mixed: 3 runs, attempted=300 failed=0") || !strings.Contains(out.String(), "spread") {
		t.Errorf("set report:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "no bound"); got != len(workloadNames) || !regexp.MustCompile(`lat_p50_ms +14 ms`).MatchString(out.String()) {
		t.Errorf("set report names %d demoted metrics, want lat_p50_ms = 14 ms once per workload:\n%s", got, out.String())
	}
	if _, err := runSet(cfg, fakeRunner(&scale, 1)); err == nil {
		t.Error("a set with failed operations succeeded")
	}
	boom := errors.New("boom")
	if _, err := runSet(cfg, func(config) (*result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("a failing run: err = %v", err)
	}

	// Two equal sets agree; a second set a third slower does not.
	out.Reset()
	if err := runCheck(cfg, fakeRunner(&scale, 0)); err != nil {
		t.Errorf("equal sets: %v", err)
	}
	calls := 0
	drifting := func(c config) (*result, error) {
		if calls++; calls > len(workloadNames)*cfg.runs {
			scale = 1.35
		}
		return fakeRunner(&scale, 0)(c)
	}
	err = runCheck(cfg, drifting)
	if err == nil || !strings.Contains(err.Error(), "annotate_cold/tables_per_s") {
		t.Errorf("drifting sets: err = %v", err)
	}
	if !strings.Contains(out.String(), "EXCEEDS") {
		t.Errorf("check report:\n%s", out.String())
	}
}

func TestRealMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--runs", "0"},
		{"--no-such-flag"},
		{"stray"},
	} {
		var out bytes.Buffer
		if code := realMain(args, &out, &out); code != 2 {
			t.Errorf("realMain(%v) = %d, want 2\n%s", args, code, out.String())
		}
	}
	var out bytes.Buffer
	if code := realMain([]string{"--workload", "nope", "--quick"}, &out, &out); code != 1 || !strings.Contains(out.String(), "unknown workload") {
		t.Errorf("unknown workload: code %d\n%s", code, out.String())
	}
}

// smokePhase is the length of the smoke test's phases: --quick's, unless the
// race detector slows one geocode_huge table past that.
var smokePhase = map[bool]time.Duration{false: quickPhase, true: 4 * time.Second}[raceEnabled]

// TestQuickSmoke drives every workload and the traced pass end to end with
// 0.3 s phases and checks what a run must print: the host block, the digest,
// every end-to-end metric by name with its unit, and a result line carrying
// every per-layer metric BENCHMARK.json names exactly once with its unit.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the world seven times")
	}
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cfg := config{workload: name, seed: 3, warmup: smokePhase, measure: smokePhase, trace: true, quick: true,
				outDir: out, clients: 2, stdout: &stdout, stderr: &stderr}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%v\n%s%s", err, stdout.String(), stderr.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			text := stdout.String()
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is no result object: %v\n%s", err, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(b.PerLayer) {
				t.Errorf("result carries %d metrics, BENCHMARK.json names %d per-layer metrics", len(last.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range b.EndToEnd {
				count := 0
				for _, line := range lines {
					if f := strings.Fields(line); len(f) == 3 && f[0] == m.Name && f[2] == m.Unit {
						count++
					}
				}
				if count != 1 {
					t.Errorf("end-to-end metric %s printed %d times with unit %s", m.Name, count, m.Unit)
				}
			}
			for _, want := range []string{"host: nproc=", "digest: ", "workload: " + name, "span (busy pass)"} {
				if !strings.Contains(text, want) {
					t.Errorf("report lacks %q", want)
				}
			}

			// What each workload is for.
			v := func(name string) float64 { return last.Metrics[name].Value }
			shares := v("annotate.share_search") + v("annotate.share_textproc") + v("annotate.share_classify") + v("annotate.share_geo") + v("annotate.share_self")
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("annotate.share_* sum to %v", shares)
			}
			switch name {
			case "annotate_cold":
				if v("qcache.hit_ratio") != 0 || v("search.queries_per_table") < 10 || v("annotate.share_search") <= 0 {
					t.Errorf("cold: hit ratio %v, %v queries per table, search share %v", v("qcache.hit_ratio"), v("search.queries_per_table"), v("annotate.share_search"))
				}
			case "annotate_warm":
				if v("qcache.hit_ratio") != 1 || v("search.queries_per_table") != 0 || v("qcache.get_ns") <= 0 {
					t.Errorf("warm: hit ratio %v, %v queries per table, get %v ns", v("qcache.hit_ratio"), v("search.queries_per_table"), v("qcache.get_ns"))
				}
			case "geocode_huge":
				if v("search.queries_per_table") != 0 || v("disambig.components") < 10 || v("disambig.nodes") < hugeRows*hugeCols {
					t.Errorf("huge: %v queries per table, %v components, %v nodes", v("search.queries_per_table"), v("disambig.components"), v("disambig.nodes"))
				}
			case "serve_mixed":
				if v("router.hop_ms") <= 0 || v("server.resp_bytes_per_table") <= 0 || v("snapshot.bytes") <= 0 || v("load.offered_per_s") < serveLambda/2 {
					t.Errorf("serve: hop %v ms, %v response bytes, %v snapshot bytes, %v offered/s", v("router.hop_ms"), v("server.resp_bytes_per_table"), v("snapshot.bytes"), v("load.offered_per_s"))
				}
			}

			var tf traceFile
			data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Workload != name || len(tf.Requests) == 0 || len(tf.Spans) < len(tf.Requests) {
				t.Errorf("trace file: workload %q, %d requests, %d spans", tf.Workload, len(tf.Requests), len(tf.Spans))
			}
			for _, s := range tf.Spans {
				if s.End < s.Start || s.Req < 1 || s.Parent >= s.ID {
					t.Fatalf("span %+v", s)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(out, "serve-*")); len(left) > 0 {
				t.Errorf("set-up left %v behind", left)
			}
		})
	}
}

// TestEndToEndResultLine checks the untraced form of the result line on the
// cheapest workload.
func TestEndToEndResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the world twice")
	}
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "geocode_huge", "--quick", "--seed", "2", "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last.Metrics) != len(endToEndDefs) {
		t.Errorf("result carries %d metrics, want the %d end-to-end ones", len(last.Metrics), len(endToEndDefs))
	}
	for _, d := range endToEndDefs {
		if got := last.Metrics[d.Name]; got.Unit != d.Unit || got.Value <= 0 {
			t.Errorf("%s = %+v: an end-to-end metric is never 0", d.Name, got)
		}
	}
	// The demoted metrics ride on the line before it.
	also, ok := strings.CutPrefix(lines[len(lines)-2], unboundedPrefix)
	var unbounded map[string]metricValue
	if !ok || json.Unmarshal([]byte(also), &unbounded) != nil || len(unbounded) != len(demotedDefs) {
		t.Fatalf("line before the result: %s", lines[len(lines)-2])
	}
	for _, d := range demotedDefs {
		if got := unbounded[d.Name]; got.Unit != d.Unit || got.Value <= 0 {
			t.Errorf("%s = %+v", d.Name, got)
		}
	}
}
