package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilRecordIsNoop(t *testing.T) {
	var r *Record
	r.Start(Plan).Next(Merge).Stop()
	r.Busy(Plan, time.Second)
	r.Add(Nodes, 3)
	r.Apportion(Search, Decide, 1, 2)
	r.Merge(New())
	New().Merge(r)
	if r.Open() != NumStages || r.Wall() != (Times{}) || r.BusyTimes() != (Times{}) || r.Work() != (Counts{}) {
		t.Error("a nil record reads as non-empty")
	}
	if From(context.Background()) != nil {
		t.Error("a bare context carries a record")
	}
}

// TestNestedStagesPartitionTheSpan: a stage opened inside another is
// subtracted from it, and one a span's Next opens takes over its place, so
// the stages add up to the outermost span exactly.
func TestNestedStagesPartitionTheSpan(t *testing.T) {
	r := New()
	if From(With(context.Background(), r)) != r {
		t.Fatal("With/From lost the record")
	}
	start := time.Now()
	stopRender := r.Start(Render)
	time.Sleep(2 * time.Millisecond)
	stopPlan := r.Start(Plan)
	if r.Open() != Plan {
		t.Fatalf("open stage %v, want plan", r.Open())
	}
	time.Sleep(2 * time.Millisecond)
	stopGeo := r.Start(Geocode)
	time.Sleep(2 * time.Millisecond)
	stopGeo.Stop()
	stopPlan = stopPlan.Next(Merge)
	if r.Open() != Merge {
		t.Fatalf("open stage %v after plan's next, want merge", r.Open())
	}
	time.Sleep(2 * time.Millisecond)
	stopPlan.Stop()
	if r.Open() != Render {
		t.Fatalf("open stage %v after closing plan, want render", r.Open())
	}
	stopRender.Stop()
	span := time.Since(start)
	wall := r.Wall()
	for s, d := range wall {
		if d < 0 {
			t.Errorf("%v: negative share %v", Stage(s), d)
		}
	}
	for _, s := range []Stage{Render, Plan, Geocode, Merge} {
		if wall[s] < 2*time.Millisecond {
			t.Errorf("%v: %v, want at least the 2ms it slept", s, wall[s])
		}
	}
	if sum := wall.Sum(); sum > span || sum < span-span/50 {
		t.Errorf("stages sum to %v of a %v span", sum, span)
	}
	if r.Open() != NumStages {
		t.Errorf("a stage is still open: %v", r.Open())
	}
}

func TestApportionKeepsSums(t *testing.T) {
	r := New()
	span := r.Start(Search)
	time.Sleep(time.Millisecond)
	span.Stop()
	r.Busy(Search, 400)
	before, busy := r.Wall(), r.BusyTimes()
	r.Apportion(Search, Decide, 1, 4)
	after, busyAfter := r.Wall(), r.BusyTimes()
	if after.Sum() != before.Sum() || busyAfter.Sum() != busy.Sum() {
		t.Errorf("apportion changed the sums: wall %v -> %v, busy %v -> %v", before.Sum(), after.Sum(), busy.Sum(), busyAfter.Sum())
	}
	if busyAfter[Decide] != 100 || busyAfter[Search] != 300 {
		t.Errorf("busy search/decide = %v/%v, want 300/100", busyAfter[Search], busyAfter[Decide])
	}
	if after[Decide] <= 0 || after[Search] < 3*after[Decide]-1 {
		t.Errorf("wall search/decide = %v/%v, want a quarter moved", after[Search], after[Decide])
	}
}

// TestConcurrentAddsAndMerge: counters and busy time take concurrent adds,
// and Merge sums records.
func TestConcurrentAddsAndMerge(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(InListSummed, 2)
				r.Busy(Resolve, 3)
			}
		}()
	}
	wg.Wait()
	total := New()
	total.Merge(r)
	total.Merge(r)
	if got := total.Work()[InListSummed]; got != 3200 {
		t.Errorf("in-list entries %d, want 3200", got)
	}
	if got := total.BusyTimes()[Resolve]; got != 4800 {
		t.Errorf("resolve busy %v, want 4800ns", got)
	}
	r.Busy(NumStages, time.Second) // out of range: ignored
}

func TestNamesAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		if n := s.String(); n == "none" || n == "" || seen[n] {
			t.Errorf("stage %d: name %q missing or repeated", s, n)
		} else {
			seen[n] = true
		}
	}
	for c := Counter(0); c < NumCounters; c++ {
		if n := c.String(); n == "none" || n == "" || seen[n] {
			t.Errorf("counter %d: name %q missing or repeated", c, n)
		} else {
			seen[n] = true
		}
	}
	if NumStages.String() != "none" || NumCounters.String() != "none" {
		t.Error("the enum ends have names")
	}
}
