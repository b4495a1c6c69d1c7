package qcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetOrComputeBatchBasics: cached keys hit, fresh keys miss in one
// compute call carrying exactly the missed keys in order, duplicates are
// computed once, and the counters match a sequential GetOrCompute loop.
func TestGetOrComputeBatchBasics(t *testing.T) {
	c := New()
	c.Put("warm", Verdict{Type: "museum", OK: true})

	var gotMiss []string
	vs, hits, err := c.GetOrComputeBatch(
		[]string{"warm", "a", "b", "a", "warm"},
		func(miss []string) ([]Verdict, error) {
			gotMiss = append([]string(nil), miss...)
			out := make([]Verdict, len(miss))
			for i, k := range miss {
				out[i] = Verdict{Type: k, OK: true}
			}
			return out, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotMiss) != "[a b]" {
		t.Errorf("compute saw misses %v, want [a b]", gotMiss)
	}
	wantTypes := []string{"museum", "a", "b", "a", "museum"}
	wantHits := []bool{true, false, false, true, true}
	for i := range vs {
		if vs[i].Type != wantTypes[i] || hits[i] != wantHits[i] {
			t.Errorf("slot %d = (%q, hit=%v), want (%q, hit=%v)", i, vs[i].Type, hits[i], wantTypes[i], wantHits[i])
		}
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 3 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 2 misses / 3 hits / 3 entries", s)
	}
}

// TestGetOrComputeBatchSingleflight: many concurrent batched callers over
// one overlapping key set still cost exactly one backend computation per
// unique key.
func TestGetOrComputeBatchSingleflight(t *testing.T) {
	const workers = 16
	const uniqueKeys = 40
	c := New()
	var computed [uniqueKeys]atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker asks for an overlapping, rotated window of keys.
			keys := make([]string, uniqueKeys/2)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%02d", (w*3+i)%uniqueKeys)
			}
			<-start
			vs, _, err := c.GetOrComputeBatch(keys, func(miss []string) ([]Verdict, error) {
				out := make([]Verdict, len(miss))
				for i, k := range miss {
					var idx int
					fmt.Sscanf(k, "k%d", &idx)
					computed[idx].Add(1)
					out[i] = Verdict{Type: k, OK: true}
				}
				return out, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i, k := range keys {
				if vs[i].Type != k {
					t.Errorf("worker %d: key %s resolved to %q", w, k, vs[i].Type)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for i := range computed {
		if n := computed[i].Load(); n > 1 {
			t.Errorf("key k%02d computed %d times, want at most once", i, n)
		}
	}
	total := int64(0)
	for i := range computed {
		total += computed[i].Load()
	}
	if s := c.Stats(); s.Misses != total {
		t.Errorf("stats misses = %d, want %d (one per actual computation)", s.Misses, total)
	}
}

// TestGetOrComputeBatchComputeError: a failing compute withdraws its
// pending registrations (nothing is cached), concurrent waiters on those
// keys take over instead of failing, and a later call computes normally.
func TestGetOrComputeBatchComputeError(t *testing.T) {
	c := New()
	keys := []string{"x", "y"}

	firstEntered := make(chan struct{})
	releaseFirst := make(chan struct{})
	var secondDone sync.WaitGroup

	go func() {
		_, _, err := c.GetOrComputeBatch(keys, func(miss []string) ([]Verdict, error) {
			close(firstEntered)
			<-releaseFirst
			return nil, context.Canceled
		})
		if err != context.Canceled {
			t.Errorf("first caller error = %v, want context.Canceled", err)
		}
	}()

	<-firstEntered // both keys are now pending under the failing caller
	secondDone.Add(1)
	var secondComputed atomic.Int64
	go func() {
		defer secondDone.Done()
		vs, _, err := c.GetOrComputeBatch(keys, func(miss []string) ([]Verdict, error) {
			out := make([]Verdict, len(miss))
			for i, k := range miss {
				secondComputed.Add(1)
				out[i] = Verdict{Type: k, OK: true}
			}
			return out, nil
		})
		if err != nil {
			t.Errorf("second caller: %v", err)
			return
		}
		for i, k := range keys {
			if vs[i].Type != k {
				t.Errorf("second caller: key %s resolved to %q", k, vs[i].Type)
			}
		}
	}()

	close(releaseFirst)
	secondDone.Wait()
	if n := secondComputed.Load(); n != 2 {
		t.Errorf("second caller computed %d keys, want 2 (took over the failed ones)", n)
	}
	if s := c.Stats(); s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}

	// Later callers see the recovered verdicts as plain hits.
	if v, ok := c.Get("x"); !ok || v.Type != "x" {
		t.Errorf("Get after recovery = (%+v, %v), want cached x", v, ok)
	}
}

// TestGetOrComputeBatchShortCompute: returning fewer verdicts than asked is
// surfaced as an error, not silently cached.
func TestGetOrComputeBatchShortCompute(t *testing.T) {
	c := New()
	_, _, err := c.GetOrComputeBatch([]string{"a", "b"}, func(miss []string) ([]Verdict, error) {
		return []Verdict{{Type: "a", OK: true}}, nil
	})
	if err == nil {
		t.Fatal("short compute result not rejected")
	}
	if c.Len() != 0 {
		t.Errorf("short compute cached %d entries, want 0", c.Len())
	}
}
