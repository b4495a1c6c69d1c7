// Package obs is the request's stage clock and work counters: one Record per
// request, carried in its context, that the layers a request passes through
// charge their wall time and their work to. A layer reads the record with
// From and calls it unconditionally: a nil record, what a context without one
// yields, turns every method into a no-op. It is a leaf package with no
// goroutine and no global state, so every layer can import it.
//
// Time. A fixed set of stages splits a request's wall time. Start opens a
// stage on the goroutine that owns the record and returns the span whose Stop
// closes it; a stage opened inside another is subtracted from it, so every instant is
// charged to exactly one stage, the innermost open, and the parts add up to
// the whole. A fan-out's wall time belongs to the stage its caller has open;
// the goroutines pool.Run starts for it add their busy time beside that, once
// each, with Busy.
//
// Work. A fixed set of counters counts what a request did, independently of
// the schedule: a layer counts per range, chunk or component in a local and
// adds the sum once, so no atomic lands in an inner loop.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Stage is one step of a request's path.
type Stage int32

const (
	Decode    Stage = iota // the server reads the body and parses its tables
	Plan                   // pre-processing and query collection
	Search                 // the search backend answers the table's queries
	Decide                 // snippet classification and the Eq. 1 decision
	Merge                  // verdicts back onto cells, then post-processing
	Geocode                // Location cells looked up in the gazetteer
	Decompose              // the voting graph's node table and components
	Resolve                // vote propagation and the per-cell choice
	Render                 // the response, and what no other stage holds
	Encode                 // the server writes the response body
	NumStages
)

// String is the stage's wire name.
func (s Stage) String() string {
	names := [NumStages]string{"decode", "plan", "search", "decide", "merge", "geocode", "decompose", "resolve", "render", "encode"}
	if s < 0 || s >= NumStages {
		return "none"
	}
	return names[s]
}

// Counter is one kind of work a request does.
type Counter int32

const (
	Queries           Counter = iota // unique queries sent to the search backend
	Results                          // search results the decide step classified
	GeocodeCalls                     // gazetteer lookups: one per distinct Location text of a table
	CellsGeocoded                    // Location cells with at least one candidate
	Candidates                       // candidates over those cells
	Nodes                            // voting-graph nodes, one per distinct (cell, candidate)
	LiveNodes                        // nodes of cells with two or more candidates
	Components                       // connected components of the voting graph
	ComponentsDead                   // components of single-candidate cells alone, never built
	ComponentsBuilt                  // component builds, resumes and reruns included
	ComponentsResumed                // builds that resumed saved scores
	InListBuilt                      // in-list entries written by those builds
	InListSummed                     // in-list entries read by vote summation, over all iterations
	Iterations                       // propagation iterations, over all builds
	BodyBytes                        // request body bytes the server decoded
	TableParses                      // tables the server parsed
	NumCounters
)

// String is the counter's wire name.
func (c Counter) String() string {
	names := [NumCounters]string{"queries", "results", "geocode_calls", "cells_geocoded", "candidates",
		"nodes", "live_nodes", "components", "components_dead", "components_built", "components_resumed",
		"in_list_built", "in_list_summed", "iterations", "body_bytes", "table_parses"}
	if c < 0 || c >= NumCounters {
		return "none"
	}
	return names[c]
}

// Times is a duration per stage.
type Times [NumStages]time.Duration

// Sum is the total over every stage.
func (t Times) Sum() time.Duration {
	var s time.Duration
	for _, d := range t {
		s += d
	}
	return s
}

// Counts is a value per counter.
type Counts [NumCounters]int64

// Record is one request's clock and counters. Start and Stop belong to the
// goroutine that owns the record; every other method is safe for concurrent
// use.
type Record struct {
	wall, busy [NumStages]atomic.Int64
	work       [NumCounters]atomic.Int64
	open       atomic.Int32 // the innermost open stage + 1; 0 when none is
	mark       time.Time    // owner only: when the open stage was last charged
}

// New starts an empty record.
func New() *Record { return new(Record) }

type ctxKey struct{}

// With returns ctx carrying r.
func With(ctx context.Context, r *Record) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// From returns the record ctx carries; nil when it carries none.
func From(ctx context.Context) *Record {
	r, _ := ctx.Value(ctxKey{}).(*Record)
	return r
}

// charge bills the time since the last switch to the open stage. Only the
// first charge reads the wall clock: the mark then keeps its monotonic
// reading, so every later one costs a single monotonic read (time.Since).
func (r *Record) charge() {
	if r.mark.IsZero() {
		r.mark = time.Now()
		return
	}
	d := time.Since(r.mark)
	r.mark = r.mark.Add(d)
	if open := r.open.Load(); open > 0 {
		r.wall[open-1].Add(int64(d))
	}
}

// Span is a stage Start opened; Stop closes it.
type Span struct {
	r      *Record
	parent int32
}

// Start opens stage s inside whatever stage is open and returns its span,
// whose Stop reopens the enclosing one. Until then the time is s's, minus
// what stages opened inside it take. Only the owning goroutine calls Start,
// and it stops spans in the reverse order it started them.
func (r *Record) Start(s Stage) Span {
	if r == nil {
		return Span{}
	}
	r.charge()
	return Span{r: r, parent: r.open.Swap(int32(s) + 1)}
}

// Stop closes the span's stage.
func (sp Span) Stop() {
	if sp.r != nil {
		sp.r.charge()
		sp.r.open.Store(sp.parent)
	}
}

// Next closes the span's stage and opens s in its place, inside the same
// enclosing stage, reading the clock once: for a stage that ends just as the
// next begins.
func (sp Span) Next(s Stage) Span {
	if sp.r != nil {
		sp.r.charge()
		sp.r.open.Store(int32(s) + 1)
	}
	return sp
}

// Open is the innermost open stage; NumStages when none is, and for a nil
// record.
func (r *Record) Open() Stage {
	if r == nil {
		return NumStages
	}
	if open := r.open.Load(); open > 0 {
		return Stage(open - 1)
	}
	return NumStages
}

// Busy adds d to stage s's busy time: the work of a goroutine a fan-out
// started for s, beside the wall time its caller spends in s. A stage out of
// range is ignored.
func (r *Record) Busy(s Stage, d time.Duration) {
	if r != nil && s >= 0 && s < NumStages {
		r.busy[s].Add(int64(d))
	}
}

// Add adds n to counter c.
func (r *Record) Add(c Counter, n int64) {
	if r != nil && n != 0 {
		r.work[c].Add(n)
	}
}

// Apportion moves part/whole of stage from's wall and busy time to stage to,
// for a fan-out whose items do both stages' work in turn: its items measure
// how long they spend in each, and the caller, having charged the fan-out to
// from, hands to its measured share. Sums are unchanged.
func (r *Record) Apportion(from, to Stage, part, whole time.Duration) {
	if r == nil || part <= 0 || whole <= 0 {
		return
	}
	for _, t := range []*[NumStages]atomic.Int64{&r.wall, &r.busy} {
		moved := int64(float64(t[from].Load()) * float64(part) / float64(whole))
		t[from].Add(-moved)
		t[to].Add(moved)
	}
}

// Merge adds o's times and counts to r: a request's tables into the request,
// requests into a server's totals. What o never charged adds nothing, so a
// shared total takes only the writes a request's own stages and counters need.
func (r *Record) Merge(o *Record) {
	if r == nil || o == nil {
		return
	}
	add := func(dst, src []atomic.Int64) {
		for i := range src {
			if v := src[i].Load(); v != 0 {
				dst[i].Add(v)
			}
		}
	}
	add(r.wall[:], o.wall[:])
	add(r.busy[:], o.busy[:])
	add(r.work[:], o.work[:])
}

// Wall is the wall time charged to each stage so far.
func (r *Record) Wall() Times {
	if r == nil {
		return Times{}
	}
	return times(&r.wall)
}

// BusyTimes is the busy time fan-out goroutines added to each stage so far.
func (r *Record) BusyTimes() Times {
	if r == nil {
		return Times{}
	}
	return times(&r.busy)
}

func times(a *[NumStages]atomic.Int64) Times {
	var t Times
	for s := range a {
		t[s] = time.Duration(a[s].Load())
	}
	return t
}

// Work is every counter's value so far.
func (r *Record) Work() Counts {
	var c Counts
	if r != nil {
		for i := range r.work {
			c[i] = r.work[i].Load()
		}
	}
	return c
}
