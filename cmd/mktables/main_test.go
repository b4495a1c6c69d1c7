package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunDeterministic: two runs at one seed write byte-identical files,
// gold.tsv included, whose rows come from a map.
func TestRunDeterministic(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if err := run(dir, 5, false, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("%d files written, want tables plus gold.tsv", len(entries))
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(dirs[0], e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between two runs at seed 5", e.Name())
		}
	}
	if other, err := os.ReadDir(dirs[1]); err != nil || len(other) != len(entries) {
		t.Errorf("second run wrote %d files, first %d (%v)", len(other), len(entries), err)
	}
}
