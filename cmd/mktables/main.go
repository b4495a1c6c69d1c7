// Command mktables materialises the synthetic evaluation datasets (§6.2 GFT
// and §6.3 Wiki Manual) as CSV files plus a gold-standard TSV, for inspection
// or for feeding cmd/annotate.
//
// Usage:
//
//	mktables -out ./data [-seed 42] [-wiki]
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/dataset"
	"repro/internal/table"
	"repro/internal/world"
)

func main() {
	var (
		out  = flag.String("out", "data", "output directory")
		seed = flag.Int64("seed", 42, "universe seed")
		wiki = flag.Bool("wiki", false, "emit the Wiki Manual dataset instead of the GFT dataset")
	)
	flag.Parse()
	if err := run(*out, *seed, *wiki, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mktables:", err)
		os.Exit(1)
	}
}

// run writes one CSV per table and gold.tsv into out. Both depend on the
// seed alone: gold.tsv lists each table's cells in (row, col) order.
func run(out string, seed int64, wiki bool, stdout io.Writer) error {
	w := world.Generate(world.Config{Seed: seed})
	var ds *dataset.Dataset
	if wiki {
		ds = dataset.BuildWikiManual(w, seed+6)
	} else {
		ds = dataset.BuildGFT(w, seed+5)
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, tbl := range ds.Tables {
		f, err := os.Create(filepath.Join(out, tbl.Name+".csv"))
		if err != nil {
			return err
		}
		if err := table.WriteCSV(f, tbl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	g, err := os.Create(filepath.Join(out, "gold.tsv"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(g)
	fmt.Fprintln(bw, "table\trow\tcol\ttype")
	for _, tbl := range ds.Tables {
		gold := ds.Gold[tbl.Name]
		keys := slices.SortedFunc(maps.Keys(gold), func(a, b dataset.CellKey) int {
			return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
		})
		for _, key := range keys {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%s\n", tbl.Name, key.Row, key.Col, gold[key])
		}
	}
	// The buffer's error is sticky: Flush reports the first failed write.
	if err := bw.Flush(); err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d tables and gold standard to %s\n", len(ds.Tables), out)
	return nil
}
