package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/gazetteer"
	"repro/internal/search"
	"repro/internal/snapshot"
)

// writeTinyBundle hand-builds a minimal valid bundle so inspect/verify tests
// do not pay a full world build.
func writeTinyBundle(t *testing.T) string {
	t.Helper()
	six := search.Build(1, slices.Values([]search.Document{
		{URL: "http://t.test/a", Title: "Museum", Body: "a museum", Lang: "en"},
		{URL: "http://t.test/b", Title: "Diner", Body: "a restaurant", Lang: "en"},
	}))
	var d classify.Dataset
	d.Add("museum art", "museum")
	d.Add("restaurant menu", "restaurant")
	frozen := gazetteer.Synthetic(1).Freeze()
	b := &snapshot.Bundle{
		Manifest: snapshot.Manifest{
			Seed: 1, Scale: "small", Classifier: "svm", SearchShards: 1,
			Docs: six.Len(), Locations: frozen.Len(),
			CreatedAtUnix: 1754006400, BuildMillis: 7, Tool: "main_test",
		},
		Index:     six,
		Gazetteer: frozen,
		SVM:       classify.LinearSVMTrainer{Epochs: 1, Seed: 1}.Train(d),
		Bayes:     classify.BayesTrainer{}.Train(d),
	}
	path := filepath.Join(t.TempDir(), "tiny.tsnp")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInspectAndVerify(t *testing.T) {
	path := writeTinyBundle(t)

	var out bytes.Buffer
	if err := run([]string{"inspect", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TSNP v1", "seed=1 scale=small classifier=svm shards=1", "section search", "section gazetteer", "section svm", "section bayes", "tool=main_test"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"verify", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ok (2 docs") {
		t.Errorf("verify output = %q", out.String())
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	path := writeTinyBundle(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	bad := filepath.Join(t.TempDir(), "bad.tsnp")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"verify", bad}, &out, &out); err == nil {
		t.Error("verify accepted a corrupt bundle")
	}
	if err := run([]string{"verify", bad + ".absent"}, &out, &out); err == nil {
		t.Error("verify accepted a missing file")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{nil, {"bogus"}, {"inspect"}, {"verify", "a", "b"}} {
		if err := run(args, &out, &out); err == nil {
			t.Errorf("run(%v) succeeded, want usage error", args)
		}
	}
}

// TestBuildSubcommand performs one real small-scale build and checks the
// artifact verifies. This is the expensive test of the package (~seconds).
func TestBuildSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("full world build skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "world.tsnp")
	var buf bytes.Buffer
	if err := run([]string{"build", "-out", out, "-seed", "42"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote "+out) {
		t.Errorf("build output = %q", buf.String())
	}
	buf.Reset()
	if err := run([]string{"verify", out}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Seed != 42 || b.Manifest.Scale != "small" || b.Manifest.Tool != "cmd/snapshot" {
		t.Errorf("manifest = %+v", b.Manifest)
	}
}
