package annotate

// Tests of the immutable-Config pipeline entry points: deriving per-request
// variants from a base config without rebuilding components, and
// cancellation on the config path.

import (
	"context"
	"testing"

	"repro/internal/search"
	"repro/internal/table"
)

func scriptedConfig(s *scriptedSearcher) Config {
	return Config{
		Searcher:   s,
		Classifier: constClassifier("museum"),
		Types:      []string{"museum", "restaurant"},
		K:          10,
	}
}

// TestConfigAnnotate drives the pipeline through Config directly.
func TestConfigAnnotate(t *testing.T) {
	s := &scriptedSearcher{results: map[string][]search.Result{"Louvre": snippets(10)}}
	res, err := scriptedConfig(s).Annotate(context.Background(), scriptedTable(t, "Louvre", "Unknown"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) != 1 || res.Annotations[0].Type != "museum" {
		t.Fatalf("annotations = %+v, want one museum", res.Annotations)
	}
	if res.Queries != 2 {
		t.Errorf("queries = %d, want 2", res.Queries)
	}
}

// TestConfigDerivedVariant copies a base config and adjusts the per-request
// knobs (Γ, k); the base must be unaffected and the derived run must see the
// new settings — the pattern repro.Service uses per request.
func TestConfigDerivedVariant(t *testing.T) {
	s := &scriptedSearcher{results: map[string][]search.Result{"Louvre": snippets(10)}}
	base := scriptedConfig(s)

	derived := base
	derived.Types = []string{"restaurant"}
	derived.K = 5

	res, err := derived.Annotate(context.Background(), scriptedTable(t, "Louvre"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) != 0 {
		t.Errorf("Γ={restaurant} still annotated a museum: %+v", res.Annotations)
	}
	if base.K != 10 || len(base.Types) != 2 {
		t.Errorf("deriving a variant mutated the base config: %+v", base)
	}
	res, err = base.Annotate(context.Background(), scriptedTable(t, "Louvre"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) != 1 {
		t.Errorf("base config changed behaviour after deriving a variant: %+v", res.Annotations)
	}
}

// TestConfigExplainCancelled: a cancelled context aborts the trace before it
// reaches the backend.
func TestConfigExplainCancelled(t *testing.T) {
	s := &scriptedSearcher{results: map[string][]search.Result{"Louvre": snippets(10)}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := scriptedConfig(s).For(scriptedTable(t, "Louvre", "Unknown")).AnnotateTraced(cancelled); err == nil {
		t.Error("cancelled context did not abort the traced run")
	}
	if s.calls.Load() != 0 {
		t.Errorf("backend saw %d queries after cancellation, want 0", s.calls.Load())
	}
}

// TestConfigBatchCancelled: the batch entry point returns the context error
// rather than a truncated result slice.
func TestConfigBatchCancelled(t *testing.T) {
	s := &scriptedSearcher{results: map[string][]search.Result{"Louvre": snippets(10)}}
	cfg := scriptedConfig(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tables := []*table.Table{scriptedTable(t, "Louvre"), scriptedTable(t, "Louvre")}
	cfg.Parallelism = 2
	if _, err := cfg.AnnotateBatch(ctx, tables); err == nil {
		t.Fatal("cancelled context did not abort AnnotateBatch")
	}
	if s.calls.Load() != 0 {
		t.Errorf("backend saw %d queries after cancellation, want 0", s.calls.Load())
	}
}

// TestMustResultPanics documents the context-free comparators' error routing:
// a failed run can never be silently truncated — the impossible case panics.
func TestMustResultPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mustResult(nil, err) did not panic")
		}
	}()
	mustResult(nil, context.Canceled)
}
