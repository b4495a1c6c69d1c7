package qcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPut(t *testing.T) {
	c := New()
	if _, ok := c.Get("melisse santa monica"); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := Verdict{Type: "restaurant", Score: 0.8, OK: true}
	c.Put("melisse santa monica", want)
	got, ok := c.Get("melisse santa monica")
	if !ok || got != want {
		t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, want)
	}
	// Abstentions are cached too.
	c.Put("ambiguous", Verdict{})
	if v, ok := c.Get("ambiguous"); !ok || v.OK {
		t.Fatalf("abstention verdict = %+v, %v; want cached non-annotation", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestStats(t *testing.T) {
	c := New()
	c.Get("a") // miss
	c.Put("a", Verdict{OK: true})
	c.Get("a") // hit
	c.Get("b") // miss
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 1 entry", s)
	}
	if r := s.HitRate(); r < 0.33 || r > 0.34 {
		t.Errorf("hit rate = %v, want 1/3", r)
	}
	c.Reset()
	s = c.Stats()
	if s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("stats after reset = %+v, want zeroes", s)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("hit rate before any lookup should be 0")
	}
}

// TestConcurrentAccess exercises every shard from many goroutines; run with
// -race this doubles as the data-race check for the shard locking.
func TestConcurrentAccess(t *testing.T) {
	c := New()
	const workers = 16
	const keys = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("query-%d", i)
				if v, ok := c.Get(key); ok && v.Score != float64(i) {
					t.Errorf("key %s: got score %v, want %d", key, v.Score, i)
					return
				}
				c.Put(key, Verdict{Type: "t", Score: float64(i), OK: true})
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != keys {
		t.Errorf("Len = %d, want %d", c.Len(), keys)
	}
	s := c.Stats()
	if s.Hits+s.Misses != workers*keys {
		t.Errorf("lookups = %d, want %d", s.Hits+s.Misses, workers*keys)
	}
}

// TestGetOrComputeSingleflight: concurrent misses of one key run compute
// exactly once; everyone gets the same verdict, one miss is counted.
func TestGetOrComputeSingleflight(t *testing.T) {
	c := New()
	var computes atomic.Int64
	var wg sync.WaitGroup
	const workers = 12
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			vs, _, err := c.GetOrComputeBatch([]string{"shared-key"}, func([]string) ([]Verdict, error) {
				computes.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return []Verdict{{Type: "museum", Score: 0.9, OK: true}}, nil
			})
			if err != nil || vs[0].Type != "museum" {
				t.Errorf("verdict = %+v, err = %v", vs, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1 (singleflight)", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", s, workers-1)
	}
	// A later call is a plain cached hit.
	_, hits, _ := c.GetOrComputeBatch([]string{"shared-key"}, func([]string) ([]Verdict, error) {
		t.Error("recomputed")
		return []Verdict{{}}, nil
	})
	if !hits[0] {
		t.Error("cached key reported as miss")
	}
}

func TestShardDistribution(t *testing.T) {
	c := New()
	for i := 0; i < 10_000; i++ {
		c.Put(fmt.Sprintf("cell value %d", i), Verdict{})
	}
	occupied := 0
	for i := range c.shards {
		if len(c.shards[i].m) > 0 {
			occupied++
		}
	}
	if occupied != numShards {
		t.Errorf("only %d/%d shards occupied; FNV distribution is broken", occupied, numShards)
	}
}

// TestMaxEntriesEviction: a capped cache evicts each shard's oldest
// insertion first and counts every eviction.
func TestMaxEntriesEviction(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: numShards}) // one entry per shard
	// Find two keys in the same shard; the second insertion must evict the
	// first and leave later shard-mates untouched by other shards' traffic.
	first := "seed-key"
	sh := c.shardFor(first)
	var second string
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.shardFor(k) == sh && k != first {
			second = k
			break
		}
	}
	c.Put(first, Verdict{Type: "a", OK: true})
	c.Put(second, Verdict{Type: "b", OK: true})
	if _, ok := c.Get(first); ok {
		t.Error("oldest entry survived a same-shard insertion past the cap")
	}
	if v, ok := c.Get(second); !ok || v.Type != "b" {
		t.Errorf("newest entry = %+v, %v; want the inserted verdict", v, ok)
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	// Overwriting a key must not evict anything: the entry count is stable.
	c.Put(second, Verdict{Type: "b2", OK: true})
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions after overwrite = %d, want still 1", s.Evictions)
	}
	if v, _ := c.Get(second); v.Type != "b2" {
		t.Errorf("overwrite lost: got %+v", v)
	}
}

// TestFIFOQueueCompaction: repeated overwrites of one key cannot grow the
// insertion-order queue without bound.
func TestFIFOQueueCompaction(t *testing.T) {
	c := NewWithOptions(Options{MaxEntries: numShards * 4})
	key := "hot-key"
	for i := 0; i < 10_000; i++ {
		c.Put(key, Verdict{Score: float64(i)})
	}
	s := c.shardFor(key)
	if n := len(s.fifo); n > 2*c.perShard+16 {
		t.Errorf("fifo grew to %d records for one live key (perShard=%d)", n, c.perShard)
	}
	if v, ok := c.Get(key); !ok || v.Score != 9999 {
		t.Errorf("hot key = %+v, %v; want the last overwrite", v, ok)
	}
}

// TestTTLExpiry: entries past their TTL read as misses, are dropped on
// lookup, and count as expirations (not evictions).
func TestTTLExpiry(t *testing.T) {
	c := NewWithOptions(Options{TTL: time.Minute})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put("a", Verdict{Type: "museum", OK: true})
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry reported as miss")
	}
	now = now.Add(time.Minute) // exactly at expiry: gone
	if _, ok := c.Get("a"); ok {
		t.Error("expired entry reported as hit")
	}
	st := c.Stats()
	if st.Expirations != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 1 expiration / 0 evictions", st)
	}
	if st.Entries != 0 {
		t.Errorf("entries = %d, want 0 after lazy expiry collected the entry", st.Entries)
	}
	// GetOrComputeBatch recomputes an expired key instead of serving it.
	vs, hits, err := c.GetOrComputeBatch([]string{"a"}, func(miss []string) ([]Verdict, error) {
		if len(miss) != 1 {
			t.Errorf("batch miss keys = %v, want the expired key", miss)
		}
		return []Verdict{{Type: "fresher", OK: true}}, nil
	})
	if err != nil || hits[0] || vs[0].Type != "fresher" {
		t.Errorf("batch on expired key = %+v hits=%v err=%v", vs, hits, err)
	}
}
