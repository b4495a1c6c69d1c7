package repro

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/snapshot"
)

// writeTestSnapshot snapshots the shared test service into dir and returns
// the bundle path.
func writeTestSnapshot(t *testing.T, svc *Service) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "world.tsnp")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.WriteSnapshot(f, "service_snapshot_test"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotBootBeatsBuild: the bundle exists to beat the rebuild, so even
// one unwarmed load boots faster than the world it was written from was built.
func TestSnapshotBootBeatsBuild(t *testing.T) {
	svc := testService(t)
	loaded, err := New(context.Background(), WithSnapshot(writeTestSnapshot(t, svc)))
	if err != nil {
		t.Fatal(err)
	}
	if load, build := loaded.Snapshot().LoadDuration, svc.BuildDuration(); load >= build {
		t.Errorf("snapshot load took %v, not less than the world build's %v", load, build)
	}
}

// TestServiceSnapshotRoundTrip is the package-level differential: a service
// booted from a snapshot answers Annotate, Geocode and Explain identically
// to the service the snapshot was written from, and POI extraction over its
// gazetteer yields the same triples.
func TestServiceSnapshotRoundTrip(t *testing.T) {
	svc := testService(t)
	path := writeTestSnapshot(t, svc)

	loaded, err := New(context.Background(), WithSnapshot(path), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}

	// The loaded service inherits the manifest's identity.
	if loaded.Seed() != svc.Seed() || loaded.Scale() != svc.Scale() || loaded.ClassifierName() != svc.ClassifierName() {
		t.Errorf("loaded identity (seed %d, scale %s, clf %s) != built (%d, %s, %s)",
			loaded.Seed(), loaded.Scale(), loaded.ClassifierName(), svc.Seed(), svc.Scale(), svc.ClassifierName())
	}
	snap := loaded.Snapshot()
	if snap == nil {
		t.Fatal("snapshot-booted service reports Snapshot() == nil")
	}
	// The manifest it holds is the one the writer stamped: the writer's own
	// identity and sizes, plus the tool and time of the write.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	written, _, err := snapshot.Inspect(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	stamped := snapshot.Manifest{
		Seed:          svc.Seed(),
		Scale:         svc.Scale(),
		Classifier:    svc.ClassifierName(),
		SearchShards:  svc.Engine().ShardedIndex().NumShards(),
		Docs:          svc.Engine().IndexSize(),
		Locations:     svc.Geo().Len(),
		CreatedAtUnix: written.CreatedAtUnix,
		BuildMillis:   svc.BuildDuration().Milliseconds(),
		Tool:          "service_snapshot_test",
	}
	if snap.Path != path || snap.LoadDuration <= 0 || snap.Manifest != written || written != stamped || written.CreatedAtUnix == 0 {
		t.Errorf("SnapshotInfo = %+v\n written %+v\n    want %+v", snap, written, stamped)
	}
	if svc.Snapshot() != nil {
		t.Error("built-from-scratch service reports a SnapshotInfo")
	}
	// A snapshot boot is made of the bundle alone; a build keeps its lab.
	if loaded.Lab() != nil || svc.Lab() == nil {
		t.Errorf("Lab(): snapshot-booted %v, built %v, want nil and non-nil", loaded.Lab(), svc.Lab())
	}

	tbl := testTable(t, svc)
	ctx := context.Background()
	req := &AnnotateRequest{Table: tbl, Geocode: true, Trace: true}
	want, err := svc.Annotate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Annotate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want.Timing, got.Timing = Timing{}, Timing{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot-booted Annotate diverged:\n got %+v\nwant %+v", got, want)
	}

	// POI extraction reads the gazetteer through Geo(), which a
	// snapshot-booted service has too: same triples, poi:city included.
	triples := func(s *Service, resp *AnnotateResponse) string {
		store := rdf.NewStore()
		(&rdf.Extractor{Gazetteer: s.Geo()}).Extract(tbl, resp.Annotations, store)
		return store.WriteNTriples()
	}
	wantTriples := triples(svc, want)
	if !strings.Contains(wantTriples, rdf.PredCity) {
		t.Fatal("the built service extracted no poi:city triple; the comparison below would be vacuous")
	}
	if gotTriples := triples(loaded, got); gotTriples != wantTriples {
		t.Errorf("snapshot-booted extraction diverged:\n got %s\nwant %s", gotTriples, wantTriples)
	}

	gw, err := svc.Geocode(ctx, &GeocodeRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	gg, err := loaded.Geocode(ctx, &GeocodeRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	// Timing is wall-clock and PeakScratchBytes a schedule-dependent high-water
	// mark: both advisory, outside the identity guarantee.
	gw.Timing, gg.Timing = Timing{}, Timing{}
	gw.Stats.PeakScratchBytes, gg.Stats.PeakScratchBytes = 0, 0
	if !reflect.DeepEqual(gg, gw) {
		t.Errorf("snapshot-booted Geocode diverged:\n got %+v\nwant %+v", gg, gw)
	}

	// A snapshot of the loaded service reproduces the payload sections
	// byte-for-byte (the manifest's CreatedAt/BuildMillis legitimately
	// differ, so compare via a second load's responses instead of bytes).
	again := writeTestSnapshot(t, loaded)
	reloaded, err := New(context.Background(), WithSnapshot(again), WithParallelism(4))
	if err != nil {
		t.Fatalf("re-snapshot of a snapshot-booted service does not load: %v", err)
	}
	got2, err := reloaded.Annotate(ctx, &AnnotateRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := svc.Annotate(ctx, &AnnotateRequest{Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	got2.Timing, want2.Timing = Timing{}, Timing{}
	if !reflect.DeepEqual(got2, want2) {
		t.Error("second-generation snapshot diverged from the original service")
	}
}

// TestWithSnapshotMismatch: explicitly pinned identity options that disagree
// with the bundle manifest refuse with a typed error; matching ones load.
func TestWithSnapshotMismatch(t *testing.T) {
	svc := testService(t)
	path := writeTestSnapshot(t, svc)
	ctx := context.Background()

	cases := []struct {
		name string
		opt  Option
	}{
		{"seed", WithSeed(svc.Seed() + 1)},
		{"scale", WithScale(ScaleFull)},
		{"shards", WithSearchShards(svc.Engine().ShardedIndex().NumShards() + 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(ctx, WithSnapshot(path), tc.opt)
			var sme *SnapshotMismatchError
			if !errors.As(err, &sme) {
				t.Fatalf("New() error = %v, want *SnapshotMismatchError", err)
			}
		})
	}

	// Explicit options that AGREE with the manifest are fine.
	if _, err := New(ctx, WithSnapshot(path), WithSeed(svc.Seed()), WithScale(ScaleSmall)); err != nil {
		t.Fatalf("matching explicit options refused: %v", err)
	}
	// WithClassifier selects freely — both models travel in the bundle.
	loaded, err := New(ctx, WithSnapshot(path), WithClassifier(ClassifierBayes))
	if err != nil {
		t.Fatalf("WithClassifier(bayes) over an svm-manifest bundle refused: %v", err)
	}
	if loaded.ClassifierName() != ClassifierBayes {
		t.Errorf("ClassifierName() = %q, want bayes", loaded.ClassifierName())
	}
}

// TestWithSnapshotBadFile: missing and corrupt bundles fail with errors, and
// an empty path is an option error.
func TestWithSnapshotBadFile(t *testing.T) {
	ctx := context.Background()
	var oe *OptionError
	if _, err := New(ctx, WithSnapshot("")); !errors.As(err, &oe) {
		t.Errorf("WithSnapshot(\"\") error = %v, want *OptionError", err)
	}
	if _, err := New(ctx, WithSnapshot(filepath.Join(t.TempDir(), "absent.tsnp"))); err == nil {
		t.Error("missing bundle file loaded successfully")
	}
	svc := testService(t)
	path := writeTestSnapshot(t, svc)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.tsnp")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(ctx, WithSnapshot(trunc)); err == nil {
		t.Error("truncated bundle loaded successfully")
	}
}
