package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op performs pool operation i against the program, checks the response
// against its reference and returns when the response arrived, how many
// bytes it carried over the wire (0 in process) and whether it failed.
type op func(i int) (done time.Time, respBytes int, err error)

// sample is one operation of the measured phase.
type sample struct {
	idx   int
	at    time.Duration // when it completed (closed loop) or was due (open loop), from the run's start
	lat   time.Duration // service time (closed loop) or completion minus due time (open loop)
	bytes int
	err   error
}

// layerCounts are the program's cumulative counters, read at both edges of
// the measured phase; the per-layer count metrics are their differences.
type layerCounts struct {
	cacheHits, cacheMisses, cacheEvictions int64
	cacheEntries                           int
	searchQueries                          int64
	shed429                                int64
	hedgesFired, hedgesWon, retries        int64
}

// edge is the state of the process at one end of the measured phase.
type edge struct {
	at    time.Duration
	cpu   time.Duration
	mem   runtime.MemStats
	layer layerCounts
}

// phase is everything one measured phase observed.
type phase struct {
	samples    []sample
	lags       []time.Duration // open loop: how late each arrival was dispatched
	start, end edge
	peakRSS    int64 // the largest VmRSS among readings taken every rssInterval
}

func (p *phase) seconds() float64 { return (p.end.at - p.start.at).Seconds() }

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// latenciesMs returns the sorted latencies, in milliseconds, of the correct
// operations keep selects (nil keeps all).
func (p *phase) latenciesMs(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.err == nil && (keep == nil || keep(s)) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user+system CPU time so far. The load generator
// lives in this process, so its cost is included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads VmRSS from /proc/self/statm; 0 where there is no procfs.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

const (
	rssInterval  = 100 * time.Millisecond
	forcedGCLead = 500 * time.Millisecond // how long before the measured phase the forced collection starts
	// scheduleSlack is how far an open-loop schedule runs past the planned end
	// of the measured phase, so a phase that started late still sees arrivals
	// to its end.
	scheduleSlack = time.Second
)

// watch brackets the measured phase of a run that started at t0: it sleeps
// through the warm-up, reads the edge state, reads resident memory every
// rssInterval for the length of the phase and reads the edge state again. The phase
// starts when the forced collection is done, which is at the end of the
// warm-up unless the collection overran its lead.
func watch(t0 time.Time, warmup, measure time.Duration, layer func() layerCounts) (start, end edge, peakRSS int64) {
	read := func() edge {
		e := edge{layer: layer()}
		runtime.ReadMemStats(&e.mem)
		e.cpu = cpuTime()
		e.at = time.Since(t0)
		return e
	}
	// A collection forced just before the phase starts puts every run's
	// heap in the same state at the same moment: the cycles that follow come
	// at the workload's own steady interval, so runs of equal length contain
	// the same number of them instead of one more or less by luck of phase.
	time.Sleep(time.Until(t0.Add(warmup - min(forcedGCLead, warmup/2))))
	runtime.GC()
	time.Sleep(time.Until(t0.Add(warmup)))
	start = read()
	for next := start.at; next <= start.at+measure; next += rssInterval {
		time.Sleep(time.Until(t0.Add(next)))
		peakRSS = max(peakRSS, residentBytes())
	}
	return start, read(), peakRSS
}

// inWindow keeps the samples whose time stamp falls between the two edges as
// they were actually read, so counts and CPU time cover the same interval.
func (p *phase) inWindow(all []sample) {
	for _, s := range all {
		if s.at >= p.start.at && s.at < p.end.at {
			p.samples = append(p.samples, s)
		}
	}
}

// runClosed drives a closed loop: each caller sends its next operation only
// when the previous one has answered, visiting the pool in its own seeded
// order, through an untimed warm-up and then the measured phase. An
// operation belongs to the measured phase when it completes inside it.
func runClosed(do op, orders [][]int, warmup, measure time.Duration, layer func() layerCounts) *phase {
	var stop atomic.Bool
	perCaller := make([][]sample, len(orders))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; !stop.Load(); k++ {
				i := order[k%len(order)]
				begin := time.Now()
				done, n, err := do(i)
				perCaller[c] = append(perCaller[c], sample{idx: i, at: done.Sub(t0), lat: done.Sub(begin), bytes: n, err: err})
			}
		}()
	}
	p := &phase{}
	p.start, p.end, p.peakRSS = watch(t0, warmup, measure, layer)
	stop.Store(true)
	wg.Wait()
	for _, s := range perCaller {
		p.inWindow(s)
	}
	return p
}

// runOpen drives an open loop: a dispatcher releases each arrival at its due
// time whatever the state of the earlier ones, and a fixed set of senders
// carries them out. Latency runs from the due time, so the wait a stall
// imposes on later arrivals is counted; how late the dispatcher itself ran
// is recorded beside it. An arrival belongs to the measured phase when it
// was due inside it.
func runOpen(do op, sched []arrival, senders int, warmup, measure time.Duration, layer func() layerCounts) *phase {
	results := make([]sample, len(sched))
	lags := make([]time.Duration, len(sched))
	// Sized to the number of sends, so the dispatcher never waits for a
	// sender: the loop stays open however slow the program is.
	queue := make(chan int, len(sched))
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				done, n, err := do(sched[k].idx)
				results[k] = sample{idx: sched[k].idx, at: sched[k].due, lat: done.Sub(t0) - sched[k].due, bytes: n, err: err}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for k, a := range sched {
			time.Sleep(time.Until(t0.Add(a.due)))
			lags[k] = time.Since(t0) - a.due
			queue <- k
		}
	}()
	p := &phase{}
	p.start, p.end, p.peakRSS = watch(t0, warmup, measure, layer)
	wg.Wait()
	p.inWindow(results)
	for k, a := range sched {
		if a.due >= p.start.at && a.due < p.end.at {
			p.lags = append(p.lags, lags[k])
		}
	}
	return p
}

// endToEnd turns a measured phase into the end-to-end metrics.
func endToEnd(p *phase, setupSeconds float64) *metricSet {
	m := newMetricSet(endToEndDefs)
	lats := p.latenciesMs(nil)
	correct := float64(len(lats))
	m.set("setup_s", setupSeconds)
	m.set("tables_per_s", ratio(correct, p.seconds()))
	m.set("peak_rss_mb", float64(p.peakRSS)/(1<<20))
	return m
}
