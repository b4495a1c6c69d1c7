// Command poibrowse reproduces the paper's motivating application (§1): it
// annotates the synthetic GFT dataset, extracts the discovered points of
// interest into an RDF repository, and serves a faceted browser as a REPL.
//
// Usage:
//
//	poibrowse [-seed 42]
//
// REPL commands:
//
//	facets                      list facet predicates and value counts
//	filter type=restaurant city=Paris
//	describe <subject>
//	count
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/rdf"
)

func main() {
	var (
		seed   = flag.Int64("seed", 42, "system seed")
		script = flag.String("script", "", "semicolon-separated commands to run non-interactively")
		load   = flag.String("load", "", "load the repository from an N-Triples dump instead of re-extracting")
		save   = flag.String("save", "", "write the repository to an N-Triples file after building it")
	)
	flag.Parse()

	var store *rdf.Store
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		var lerr error
		store, lerr = rdf.ReadNTriples(f)
		f.Close()
		if lerr != nil {
			fatal(lerr)
		}
		fmt.Printf("repository loaded: %d triples\n", store.Len())
	} else {
		fmt.Fprintln(os.Stderr, "building system and extracting POIs...")
		ctx := context.Background()
		svc, err := repro.New(ctx, repro.WithSeed(*seed))
		if err != nil {
			fatal(err)
		}
		store = rdf.NewStore()
		x := &rdf.Extractor{Gazetteer: svc.Geo(), MinScore: 0.5}
		pois := 0
		for _, tbl := range svc.Lab().GFT.Tables {
			resp, err := svc.Annotate(ctx, &repro.AnnotateRequest{Table: tbl})
			if err != nil {
				fatal(err)
			}
			pois += x.Extract(tbl, resp.Annotations, store)
		}
		fmt.Printf("repository ready: %d POIs, %d triples\n", pois, store.Len())
	}
	if *save != "" {
		if err := os.WriteFile(*save, []byte(store.WriteNTriples()+"\n"), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "repository saved to %s\n", *save)
	}

	eval := func(line string) bool {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return true
		}
		switch fields[0] {
		case "quit", "exit":
			return false
		case "count":
			fmt.Println(store.Len(), "triples")
		case "facets":
			for _, pred := range []string{rdf.PredType, rdf.PredCity} {
				fmt.Println(pred + ":")
				counts := store.FacetValues(pred)
				keys := make([]string, 0, len(counts))
				for k := range counts {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool {
					if counts[keys[i]] != counts[keys[j]] {
						return counts[keys[i]] > counts[keys[j]]
					}
					return keys[i] < keys[j]
				})
				for _, k := range keys {
					fmt.Printf("  %-30s %d\n", k, counts[k])
				}
			}
		case "filter":
			constraints := map[string]string{}
			for _, kv := range fields[1:] {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					fmt.Println("bad constraint:", kv)
					return true
				}
				pred := parts[0]
				switch pred {
				case "type":
					pred = rdf.PredType
				case "city":
					pred = rdf.PredCity
				}
				constraints[pred] = parts[1]
			}
			subjects := store.FilterSubjects(constraints)
			for _, s := range subjects {
				labels := store.Objects(s, rdf.PredLabel)
				fmt.Printf("  %-40s %s\n", s, strings.Join(labels, "; "))
			}
			fmt.Println(len(subjects), "results")
		case "describe":
			if len(fields) != 2 {
				fmt.Println("usage: describe <subject>")
				return true
			}
			for _, t := range store.Describe(fields[1]) {
				fmt.Println(" ", t)
			}
		case "sparql":
			query := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "sparql"))
			rows, err := store.SelectSPARQL(query)
			if err != nil {
				fmt.Println("error:", err)
				return true
			}
			for _, row := range rows {
				fmt.Printf("  %v\n", row)
			}
			fmt.Println(len(rows), "rows")
		default:
			fmt.Println("commands: facets | filter k=v ... | describe <subj> | sparql <query> | count | quit")
		}
		return true
	}

	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			fmt.Println(">", strings.TrimSpace(line))
			if !eval(line) {
				return
			}
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		if !eval(sc.Text()) {
			return
		}
		fmt.Print("> ")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "poibrowse:", err)
	os.Exit(1)
}
