// Package load is cmd/benchcluster's load driver: it builds distinct
// annotate requests from the seeded synthetic universe and drives them at one
// or more serving targets, either closed-loop (a fixed pool of clients, each
// firing its next request as soon as the last returns) or open-loop (Poisson
// arrivals at a fixed offered rate, independent of how fast the server
// answers — the arrival process does not slow down when the server
// saturates, which is what makes saturation visible instead of silently
// throttling the measurement).
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/world"
)

// Config drives one Run.
type Config struct {
	// Targets are the base URLs load is spread over round-robin — one
	// worker, or several replicas, or a router.
	Targets []string
	// N is the total request count.
	N int
	// Concurrency is the closed-loop client pool size; ignored when Rate
	// is set.
	Concurrency int
	// Rate, when > 0, switches to open-loop mode: requests arrive as a
	// Poisson process at this many requests/second, each served by its own
	// goroutine regardless of how many are already waiting.
	Rate float64
	// Rows is the table height per request.
	Rows int
	// Seed selects the synthetic universe; it must match the servers'.
	Seed int64
	// Timeout bounds one request.
	Timeout time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// Result is one Run's outcome.
type Result struct {
	Wall      time.Duration
	Sent      int
	Statuses  map[int]int
	Latencies []time.Duration // 200s only, sorted
}

// OK is the run's 200 count.
func (r *Result) OK() int { return r.Statuses[http.StatusOK] }

// request is one planned request: its body and (open-loop mode) arrival
// offset from the run's start.
type request struct {
	body    []byte
	arrival time.Duration
}

// plan builds the whole workload deterministically from the seed: bodies and
// Poisson arrival schedule both come from the seed, so two runs at the same
// config offer byte-identical load.
func plan(cfg Config) ([]request, error) {
	w := world.Generate(world.Config{Seed: cfg.Seed, KBPerType: 60})
	ents := w.TableEntities(world.Restaurant)
	if len(ents) == 0 {
		return nil, fmt.Errorf("universe seed %d has no restaurant entities", cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := make([]request, cfg.N)
	var clock time.Duration
	for i := range reqs {
		if cfg.Rate > 0 {
			clock += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		}
		body, err := tableBody(ents, i, cfg.Rows)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, arrival: clock}
	}
	return reqs, nil
}

// tableBody builds one /v1/annotate body: a Name/Phone restaurant table over
// the universe's entities. Every name carries the request and row index, so
// no two requests share a cell, defeating any shared verdict cache and
// forcing the full search path per request.
func tableBody(ents []*world.Entity, reqIndex, rows int) ([]byte, error) {
	tbl := table.New(fmt.Sprintf("load-%d", reqIndex),
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Phone", Type: table.Text},
	)
	for r := 0; r < rows; r++ {
		e := ents[(reqIndex*rows+r)%len(ents)]
		if err := tbl.AppendRow(fmt.Sprintf("%s %d-%d", e.Name, reqIndex, r), e.Phone); err != nil {
			return nil, err
		}
	}
	var tblJSON bytes.Buffer
	if err := table.WriteJSON(&tblJSON, tbl); err != nil {
		return nil, err
	}
	return json.Marshal(server.AnnotateRequestJSON{Table: tblJSON.Bytes()})
}

// Run executes the configured load test.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 || cfg.Rows <= 0 || len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("load: N, Rows and Targets must be set")
	}
	if cfg.Rate <= 0 && cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("load: closed-loop mode needs Concurrency")
	}
	reqs, err := plan(cfg)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		// Open-loop bursts park many requests at once; without headroom the
		// transport serialises them onto too few connections and the
		// measured latency is the client's own queueing, not the server's.
		tr.MaxIdleConnsPerHost = 256
		client = &http.Client{Timeout: cfg.Timeout, Transport: tr}
	}

	res := &Result{Statuses: map[int]int{}}
	var mu sync.Mutex
	fire := func(i int) {
		start := time.Now()
		status, err := post(client, cfg.Targets[i%len(cfg.Targets)]+"/v1/annotate", reqs[i].body)
		lat := time.Since(start)

		mu.Lock()
		defer mu.Unlock()
		res.Sent++
		if err != nil {
			return
		}
		res.Statuses[status]++
		if status == http.StatusOK {
			res.Latencies = append(res.Latencies, lat)
		}
	}

	startAll := time.Now()
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: requests launch on the planned Poisson schedule no
		// matter how many predecessors are still waiting.
		for i := range reqs {
			if d := reqs[i].arrival - time.Since(startAll); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int) { defer wg.Done(); fire(i) }(i)
		}
	} else {
		next := make(chan int)
		for c := 0; c < cfg.Concurrency; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					fire(i)
				}
			}()
		}
		for i := range reqs {
			next <- i
		}
		close(next)
	}
	wg.Wait()
	res.Wall = time.Since(startAll)
	slices.Sort(res.Latencies)
	return res, nil
}

// post sends one body and drains the answer, so the connection is reused.
func post(client *http.Client, url string, body []byte) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// Percentile reads the p-th permille (p50 = 500, p999 = 999) of a sorted
// latency slice.
func Percentile(sorted []time.Duration, permille int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * permille / 1000
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
