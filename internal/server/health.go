package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// workerState is one worker's health state machine, driven from two sides:
// the background prober's periodic /healthz polls, and the router's own
// transport errors (a connection refused mid-proxy is better evidence than
// waiting for the next poll). Transitions:
//
//	healthy --(ProbeFailThreshold consecutive failures)--> ejected
//	ejected --(one successful probe)--> healthy
//
// While ejected the worker takes no traffic and is probed with exponential
// backoff (doubling from the probe interval up to ProbeBackoffMax), so a dead
// worker costs a bounded trickle of probes; the first success readmits it
// immediately and resets the backoff.
type workerState struct {
	url string

	mu          sync.Mutex
	healthy     bool
	consecFails int
	backoff     time.Duration
	nextProbe   time.Time
	lastErr     string

	ejections int64 // completed healthy->ejected transitions

	inflight atomic.Int64 // router-side attempts currently proxied to this worker
}

// prober owns the health state of every worker and polls them in one
// background goroutine (started by start, stopped by stop). Workers begin
// healthy — a router must be able to serve before its first poll completes —
// and the first failed probe window ejects them soon after boot if they were
// never really there.
type prober struct {
	cfg     RouterConfig // the router's, defaults resolved
	client  *http.Client
	workers []*workerState

	stop chan struct{}
	done chan struct{}
}

// newProber reads the probe cadence off the router's config, which NewRouter
// has already resolved: the prober has no defaults of its own.
func newProber(cfg RouterConfig, client *http.Client) *prober {
	p := &prober{
		cfg:     cfg,
		client:  client,
		workers: make([]*workerState, len(cfg.Workers)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i, url := range cfg.Workers {
		p.workers[i] = &workerState{url: url, healthy: true, backoff: cfg.ProbeInterval}
	}
	return p
}

func (p *prober) start() {
	go func() {
		defer close(p.done)
		ticker := time.NewTicker(p.cfg.ProbeInterval)
		defer ticker.Stop()
		p.pollAll() // immediate first pass so a dead worker ejects quickly
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.pollAll()
			}
		}
	}()
}

func (p *prober) stopProbing() {
	close(p.stop)
	<-p.done
}

// pollAll probes every worker that is due: healthy workers every tick,
// ejected workers only when their backoff window has elapsed.
func (p *prober) pollAll() {
	now := time.Now()
	for _, w := range p.workers {
		w.mu.Lock()
		due := w.healthy || !now.Before(w.nextProbe)
		w.mu.Unlock()
		if due {
			p.probe(w)
		}
	}
}

// probe performs one /healthz poll and feeds the result into the state
// machine. Any 2xx is healthy; a transport error, timeout or non-2xx
// (including the 503 a worker reports mid-reload) counts as a failure.
func (p *prober) probe(w *workerState) {
	ctx, cancel := context.WithTimeout(context.Background(), max(p.cfg.ProbeInterval, probeTimeoutMin))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		p.observeFailure(w, err.Error())
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.observeFailure(w, err.Error())
		return
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		p.observeFailure(w, resp.Status)
		return
	}
	w.readmit()
}

// observeFailure records one failed probe (or one router-side transport
// error) and ejects the worker once the consecutive-failure threshold is
// reached. For an already-ejected worker it doubles the probe backoff.
func (p *prober) observeFailure(w *workerState, reason string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.consecFails++
	w.lastErr = reason
	if w.healthy {
		if w.consecFails >= p.cfg.ProbeFailThreshold {
			w.healthy = false
			w.ejections++
			w.backoff = p.cfg.ProbeInterval
			w.nextProbe = time.Now().Add(w.backoff)
		}
		return
	}
	w.backoff *= 2
	if w.backoff > p.cfg.ProbeBackoffMax {
		w.backoff = p.cfg.ProbeBackoffMax
	}
	w.nextProbe = time.Now().Add(w.backoff)
}

// readmit resets the state machine after a successful probe.
func (w *workerState) readmit() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = true
	w.consecFails = 0
	w.lastErr = ""
}

// isHealthy reports whether the worker currently takes traffic.
func (w *workerState) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// snapshotStats reads the counters the router's /statz reports.
func (w *workerState) snapshotStats() (healthy bool, ejections int64, lastErr string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy, w.ejections, w.lastErr
}

// healthyCount is the number of workers currently taking traffic.
func (p *prober) healthyCount() int {
	n := 0
	for _, w := range p.workers {
		if w.isHealthy() {
			n++
		}
	}
	return n
}
