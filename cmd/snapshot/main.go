// Command snapshot builds, inspects and verifies TSNP world bundles — the
// single-file artifacts cmd/serve boots from (-snapshot-file) so a fleet of
// replicas loads one prebuilt world instead of performing N full rebuilds.
//
// Usage:
//
//	snapshot build -out world.tsnp [-seed 42] [-scale small|full]
//	               [-classifier svm|bayes] [-shards 0]
//	snapshot inspect world.tsnp
//	snapshot verify world.tsnp
//
// build performs the full world construction (corpus, index, gazetteer,
// classifier training) once and writes the bundle atomically. inspect prints
// the manifest and section table without touching the payloads. verify
// re-reads the whole file, checking every checksum and decoding every
// section — the preflight for a deploy.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/search"
	"repro/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "snapshot:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: snapshot build|inspect|verify ...")
	}
	switch args[0] {
	case "build":
		return runBuild(args[1:], stdout)
	case "inspect":
		return runInspect(args[1:], stdout)
	case "verify":
		return runVerify(args[1:], stdout)
	}
	return fmt.Errorf("unknown subcommand %q (want build, inspect or verify)", args[0])
}

func runBuild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("snapshot build", flag.ContinueOnError)
	var (
		out        = fs.String("out", "world.tsnp", "bundle file to write")
		seed       = fs.Int64("seed", 42, "system seed")
		scale      = fs.String("scale", repro.ScaleSmall, "system scale: small | full")
		classifier = fs.String("classifier", repro.ClassifierSVM, "snippet classifier recorded in the manifest: svm | bayes")
		shards     = fs.Int("shards", 0, fmt.Sprintf("search index shards, at most %d (0 = one per CPU, capped at 8)", search.FewShards))
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "building world (scale=%s, seed=%d)...\n", *scale, *seed)
	start := time.Now()
	svc, err := repro.New(context.Background(),
		repro.WithSeed(*seed), repro.WithScale(*scale),
		repro.WithClassifier(*classifier), repro.WithSearchShards(*shards))
	if err != nil {
		return err
	}
	buildDur := time.Since(start)

	// Write via a same-directory temp file + rename, so a crashed build
	// never leaves a torn bundle under the serving path.
	tmp, err := os.CreateTemp(filepath.Dir(*out), ".tsnp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	n, err := svc.WriteSnapshot(tmp, "cmd/snapshot")
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), *out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d bytes (built in %v)\n", *out, n, buildDur.Round(time.Millisecond))
	return nil
}

func runInspect(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: snapshot inspect <file>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	m, infos, err := snapshot.Inspect(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: TSNP v%d\n", args[0], snapshot.Version)
	fmt.Fprintf(stdout, "  seed=%d scale=%s classifier=%s shards=%d\n", m.Seed, m.Scale, m.Classifier, m.SearchShards)
	fmt.Fprintf(stdout, "  docs=%d locations=%d\n", m.Docs, m.Locations)
	fmt.Fprintf(stdout, "  created=%s build=%dms tool=%s\n",
		time.Unix(m.CreatedAtUnix, 0).UTC().Format(time.RFC3339), m.BuildMillis, m.Tool)
	for _, info := range infos {
		fmt.Fprintf(stdout, "  section %-10s %12d bytes  crc32 %08x\n", info.Name, info.Length, info.CRC)
	}
	return nil
}

func runVerify(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: snapshot verify <file>")
	}
	start := time.Now()
	b, err := snapshot.ReadFile(args[0])
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	fmt.Fprintf(stdout, "%s: ok (%d docs, %d locations, verified in %v)\n",
		args[0], b.Index.Len(), b.Gazetteer.Len(), time.Since(start).Round(time.Millisecond))
	return nil
}
