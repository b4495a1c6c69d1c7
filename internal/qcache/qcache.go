// Package qcache provides the cross-table query-verdict cache the annotation
// pipeline shares between tables and corpus runs. The paper's efficiency
// analysis (§6.4) shows search-engine round-trips dominating the running time
// at ~0.5 s per processed row; real corpora repeat cell values across tables
// (chain restaurants, common person names), so remembering the verdict of a
// query once pays for every later table that asks it again.
//
// The cache is a fixed-size array of lock-protected shards, so concurrent
// annotation workers contend only when their queries hash to the same shard.
// It stores final verdicts (type, Eq. 1 score, decided-or-abstained) rather
// than raw result lists: verdicts are tiny, and re-deciding is the only part
// of the per-query cost that is not the simulated network round-trip.
//
// Keys are caller-constructed. A verdict depends on everything the deciding
// annotator is configured with (classifier, search backend, k, type set,
// decision rule), so callers sharing one Cache between differently-configured
// annotators must namespace their keys; internal/annotate does this with its
// cache-key prefix plus the caller-provided salt for the parts it cannot
// fingerprint (see annotate.Config.Cache).
package qcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errShortCompute guards against a compute callback returning fewer verdicts
// than the keys it was asked for — a programming error, surfaced instead of
// silently caching zero values.
var errShortCompute = errors.New("qcache: compute returned fewer verdicts than keys")

// numShards trades memory overhead against lock contention; 32 keeps
// contention negligible for worker pools far larger than any sensible
// annotation parallelism.
const numShards = 32

// Verdict is one cached annotation decision: the Eq. 1 outcome for a query.
type Verdict struct {
	// Type is the decided type; empty when the majority rule abstained.
	Type string
	// Score is the Eq. 1 confidence s_t / k.
	Score float64
	// OK reports whether the decision produced an annotation. Abstentions
	// are cached too — re-asking the engine would re-abstain.
	OK bool
}

// entry is one stored verdict plus the bookkeeping the bounding policies
// need: an absolute expiry instant (0: never expires) and the insertion
// sequence number FIFO eviction orders by.
type entry struct {
	v   Verdict
	exp int64 // unix nanos; 0 = no TTL
	seq uint64
}

// fifoEnt is one insertion-order record. Overwriting a key leaves its older
// records stale (their seq no longer matches the live entry); eviction skips
// them lazily and compaction drops them in bulk.
type fifoEnt struct {
	key string
	seq uint64
}

type shard struct {
	mu      sync.RWMutex
	m       map[string]entry
	pending map[string]*call
	// fifo is the insertion-order queue eviction pops from; maintained only
	// when the cache is capped, so an unbounded cache pays nothing for it.
	fifo []fifoEnt
	seq  uint64
}

// call tracks one in-flight computation so concurrent misses of the same key
// coalesce into a single backend query (singleflight). ok reports whether
// the computation produced a verdict: a batched compute that fails (context
// cancellation) publishes ok=false, and waiters retry the key themselves
// instead of adopting a verdict that never existed.
type call struct {
	done chan struct{}
	v    Verdict
	ok   bool
}

// Options bounds a Cache. The zero value (the New default) is an unbounded
// cache with no expiry — the pre-bounding behaviour.
type Options struct {
	// MaxEntries caps the number of cached verdicts; 0 means unbounded.
	// The cap is split evenly across the shards (rounded up, so the
	// effective total can exceed MaxEntries by at most numShards-1), and
	// each shard evicts its oldest insertion (FIFO) when it overflows.
	MaxEntries int
	// TTL expires an entry this long after its insertion; 0 means never.
	// Expiry is lazy: an expired entry is dropped (and counted) when a
	// lookup finds it, not by a background sweeper, so Len/Stats.Entries
	// can include entries past their TTL that nothing has asked for since.
	TTL time.Duration
}

// Cache is a sharded, concurrency-safe verdict cache. The zero value is not
// usable; construct with New or NewWithOptions.
type Cache struct {
	shards [numShards]shard
	opts   Options
	// perShard is the per-shard entry cap derived from Options.MaxEntries;
	// 0 = unbounded.
	perShard int
	// now is time.Now, swappable by tests to drive TTL expiry.
	now func() time.Time

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	expirations atomic.Int64
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int
	// Evictions counts entries dropped by the MaxEntries cap; Expirations
	// counts entries dropped because a lookup found them past their TTL.
	// Both stay 0 on an unbounded cache.
	Evictions   int64
	Expirations int64
}

// HitRate returns hits / lookups, or 0 before the first lookup.
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// New returns an empty, unbounded cache ready for concurrent use.
func New() *Cache { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty cache bounded per opts. Negative values are
// treated as 0 (unbounded / no expiry).
func NewWithOptions(opts Options) *Cache {
	if opts.MaxEntries < 0 {
		opts.MaxEntries = 0
	}
	if opts.TTL < 0 {
		opts.TTL = 0
	}
	c := &Cache{opts: opts, now: time.Now}
	if opts.MaxEntries > 0 {
		c.perShard = (opts.MaxEntries + numShards - 1) / numShards
	}
	for i := range c.shards {
		c.shards[i].m = map[string]entry{}
		c.shards[i].pending = map[string]*call{}
	}
	return c
}

// fnv32a is the FNV-1a hash, inlined to keep Get/Put allocation-free.
func fnv32a(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[fnv32a(key)%numShards]
}

// getLocked looks key up in s, enforcing lazy TTL expiry. The caller holds
// s.mu for writing (expiry deletes). Counters are the caller's job.
func (c *Cache) getLocked(s *shard, key string) (Verdict, bool) {
	e, ok := s.m[key]
	if !ok {
		return Verdict{}, false
	}
	if e.exp != 0 && c.now().UnixNano() >= e.exp {
		delete(s.m, key)
		c.expirations.Add(1)
		return Verdict{}, false
	}
	return e.v, true
}

// putLocked stores key in s, stamping the TTL expiry and enforcing the
// per-shard cap by FIFO eviction. The caller holds s.mu for writing.
func (c *Cache) putLocked(s *shard, key string, v Verdict) {
	s.seq++
	e := entry{v: v, seq: s.seq}
	if c.opts.TTL > 0 {
		e.exp = c.now().Add(c.opts.TTL).UnixNano()
	}
	s.m[key] = e
	if c.perShard == 0 {
		return
	}
	s.fifo = append(s.fifo, fifoEnt{key: key, seq: s.seq})
	for len(s.m) > c.perShard {
		head := s.fifo[0]
		s.fifo = s.fifo[1:]
		// A stale record (its key was overwritten or already expired away)
		// is skipped without counting; the loop pops until a live entry goes.
		if live, ok := s.m[head.key]; ok && live.seq == head.seq {
			delete(s.m, head.key)
			c.evictions.Add(1)
		}
	}
	if len(s.fifo) > 2*c.perShard+16 {
		// Overwrites left the queue mostly stale; drop the dead records so
		// it cannot outgrow the entries it tracks.
		live := s.fifo[:0]
		for _, fe := range s.fifo {
			if e, ok := s.m[fe.key]; ok && e.seq == fe.seq {
				live = append(live, fe)
			}
		}
		s.fifo = live
	}
}

// Get returns the cached verdict for key and whether one was present,
// updating the hit/miss counters.
func (c *Cache) Get(key string) (Verdict, bool) {
	s := c.shardFor(key)
	var v Verdict
	var ok bool
	if c.opts.TTL > 0 {
		// Expiry may delete, so the TTL path takes the write lock.
		s.mu.Lock()
		v, ok = c.getLocked(s, key)
		s.mu.Unlock()
	} else {
		s.mu.RLock()
		e, found := s.m[key]
		s.mu.RUnlock()
		v, ok = e.v, found
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores the verdict for key, overwriting any previous entry.
func (c *Cache) Put(key string, v Verdict) {
	s := c.shardFor(key)
	s.mu.Lock()
	c.putLocked(s, key, v)
	s.mu.Unlock()
}

// GetOrComputeBatch returns the cached verdicts for a batch of keys, running
// compute to produce and store the ones it lacks: cached keys resolve
// immediately, keys another caller is already computing are waited for, and
// only this caller's genuine misses are handed to compute — once, as one
// batch, so the backend pays one round of work for all of them. Concurrent
// calls for the same key coalesce: exactly one caller computes it (counted
// as the miss), the rest block until it finishes and take the result as a
// hit — so a shared cache issues exactly one backend query per unique key no
// matter how many annotation workers race on it. compute runs without any
// shard lock held. Each returned verdict is positional; hit[i] reports
// whether keys[i] was answered without this caller computing it. Duplicate
// keys within one call are computed once (the first occurrence counts as the
// miss, the rest as hits).
//
// compute receives the missed keys in input order. If it returns an error
// (context cancellation), the pending registrations are withdrawn so other
// callers retry, and the error is returned; no partial verdicts are stored.
// Waiters whose computing caller failed take the keys over themselves on
// the next pass, so one cancelled caller never poisons another's lookups.
func (c *Cache) GetOrComputeBatch(keys []string, compute func(missKeys []string) ([]Verdict, error)) (vs []Verdict, hits []bool, err error) {
	vs = make([]Verdict, len(keys))
	hits = make([]bool, len(keys))
	resolved := make([]bool, len(keys))
	for remaining := len(keys); remaining > 0; {
		var (
			ownIdx  []int           // first occurrences this caller must compute
			ownCall []*call         // their pending registrations
			dupOf   = map[int]int{} // later occurrence -> owning first occurrence
			waitIdx []int           // keys pending under another caller
			waitFor []*call
			firstAt = map[string]int{}
		)
		for i, key := range keys {
			if resolved[i] {
				continue
			}
			if at, ok := firstAt[key]; ok {
				dupOf[i] = at
				continue
			}
			s := c.shardFor(key)
			s.mu.Lock()
			if v, ok := c.getLocked(s, key); ok {
				s.mu.Unlock()
				vs[i], hits[i], resolved[i] = v, true, true
				remaining--
				c.hits.Add(1)
				continue
			}
			if cl, ok := s.pending[key]; ok {
				s.mu.Unlock()
				waitIdx = append(waitIdx, i)
				waitFor = append(waitFor, cl)
				continue
			}
			cl := &call{done: make(chan struct{})}
			s.pending[key] = cl
			s.mu.Unlock()
			firstAt[key] = i
			ownIdx = append(ownIdx, i)
			ownCall = append(ownCall, cl)
		}

		if len(ownIdx) > 0 {
			missKeys := make([]string, len(ownIdx))
			for j, i := range ownIdx {
				missKeys[j] = keys[i]
			}
			verdicts, err := compute(missKeys)
			if err != nil || len(verdicts) != len(missKeys) {
				// Withdraw the registrations and wake waiters to retry.
				for j, i := range ownIdx {
					s := c.shardFor(keys[i])
					s.mu.Lock()
					delete(s.pending, keys[i])
					s.mu.Unlock()
					close(ownCall[j].done)
				}
				if err == nil {
					err = errShortCompute
				}
				return nil, nil, err
			}
			for j, i := range ownIdx {
				cl := ownCall[j]
				cl.v, cl.ok = verdicts[j], true
				s := c.shardFor(keys[i])
				s.mu.Lock()
				c.putLocked(s, keys[i], cl.v)
				delete(s.pending, keys[i])
				s.mu.Unlock()
				close(cl.done)
				vs[i], resolved[i] = cl.v, true
				remaining--
				c.misses.Add(1)
			}
		}

		// Later duplicates adopt the first occurrence's verdict as hits.
		for i, at := range dupOf {
			if !resolved[at] {
				continue // first occurrence was a foreign wait that failed
			}
			vs[i], hits[i], resolved[i] = vs[at], true, true
			remaining--
			c.hits.Add(1)
		}

		// Wait for foreign computations; failed ones loop back around and
		// are computed by this caller on the next pass.
		for j, i := range waitIdx {
			cl := waitFor[j]
			<-cl.done
			if !cl.ok {
				continue
			}
			vs[i], hits[i], resolved[i] = cl.v, true, true
			remaining--
			c.hits.Add(1)
		}
	}
	return vs, hits, nil
}

// Len returns the number of cached verdicts.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Stats snapshots the hit/miss/eviction counters and entry count.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Entries:     c.Len(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
	}
}

// Reset drops every entry and zeroes the counters.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = map[string]entry{}
		s.fifo = nil
		s.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.expirations.Store(0)
}
