package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/gazetteer"
	"repro/internal/server"
	"repro/internal/table"
)

// Everything in this file is a pure function of the workload seed: the same
// seed gives byte-identical inputs, and the program under test never sees
// the seed itself.

// Sizing constants of the workloads. They are part of the benchmark's
// definition (bench/README.md explains each); changing one changes what every
// recorded number means.
const (
	worldSeed = 42 // the canonical small-scale world every workload runs against

	hugeTables = 8    // geocode_huge pool size
	hugeRows   = 2000 // rows per huge table; x hugeCols interpretations is past the 4096 streaming threshold
	hugeCols   = 4

	servePoolSize = 1024 // distinct request bodies of serve_mixed
	// Entries per worker cache. The pool holds about 13 000 distinct
	// queries, thirty times this, and under Zipf(1.1) ten bodies draw half
	// the traffic: at this size a body outside the hottest few dozen is
	// evicted before it returns, and the hit ratio sits near 0.5 with the
	// cache turning over several times a second. (At 4096 nothing is ever
	// evicted within a run and the ratio reads 0.9.)
	serveCacheLimit = 384
	serveLambda     = 300.0 // offered requests/s; a constant, confirmed once by hand (README: capacity probe)
	serveZipfS      = 1.1   // popularity skew of the bodies
	serveWindowRows = 8     // rows per annotate body
	serveGeoRows    = 50    // rows per geocode body
	serveGeoCols    = 4
	serveGeoEvery   = 5 // every fifth pool rank is a geocode body: 20 % of the pool
)

// rngFor derives an independent stream per (seed, purpose) pair, so adding a
// draw to one generator never shifts another's sequence.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed*1000003 ^ int64(h.Sum64())))
}

// tableOrder is the order in which one closed-loop caller visits a pool of n
// tables; it loops over it for the whole run.
func tableOrder(seed int64, caller, n int) []int {
	return rngFor(seed, "order/"+strconv.Itoa(caller)).Perm(n)
}

// addressBook is the part of the gazetteer the address generators draw from:
// every city that has streets, with their names.
type addressBook struct {
	cities  []string
	streets [][]string
}

func newAddressBook(g *gazetteer.Frozen) *addressBook {
	b := &addressBook{}
	for _, c := range g.Cities() {
		ids := g.StreetsIn(c)
		if len(ids) == 0 {
			continue
		}
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = g.Name(id)
		}
		b.cities = append(b.cities, g.Name(c))
		b.streets = append(b.streets, names)
	}
	return b
}

// addressTable builds a rows x cols table of Location columns whose cells are
// "Street, City" addresses: each row draws a home city and each cell a street
// of it, so candidate sets couple only rows that share a city name and the
// voting graph splits into many components.
func addressTable(b *addressBook, rng *rand.Rand, name string, rows, cols int) *table.Table {
	columns := make([]table.Column, cols)
	for j := range columns {
		columns[j] = table.Column{Header: "Address " + strconv.Itoa(j+1), Type: table.Location}
	}
	t := table.New(name, columns...)
	for i := 0; i < rows; i++ {
		home := rng.Intn(len(b.cities))
		cells := make([]string, cols) // the table keeps the slice
		for j := range cells {
			cells[j] = b.streets[home][rng.Intn(len(b.streets[home]))] + ", " + b.cities[home]
		}
		if err := t.AppendRow(cells...); err != nil {
			panic(err) // unreachable: the row is built to the table's width
		}
	}
	return t
}

// hugePool is geocode_huge's pool of address tables.
func hugePool(seed int64, b *addressBook) []*table.Table {
	out := make([]*table.Table, hugeTables)
	for i := range out {
		out[i] = addressTable(b, rngFor(seed, "huge/"+strconv.Itoa(i)), "huge-"+strconv.Itoa(i), hugeRows, hugeCols)
	}
	return out
}

// body is one request of serve_mixed's pool.
type body struct {
	geocode bool
	path    string
	data    []byte
	tbl     *table.Table
}

func tableJSON(t *table.Table) []byte {
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf, t); err != nil {
		panic(err) // unreachable: a bytes.Buffer does not fail and every cell is a string
	}
	return buf.Bytes()
}

// servePool builds serve_mixed's request bodies; the index into the pool is
// the body's popularity rank. What a rank holds — annotate or geocode, which
// canonical table it windows, whether its cells carry the unique suffix — is
// fixed by the rank alone, so the cost profile by popularity is the same for
// every seed and two seeds measure the same traffic mix. The seed draws
// everything else: where each 8-row window starts and every address.
func servePool(seed int64, canonical []*table.Table, b *addressBook) []body {
	pool := make([]body, servePoolSize)
	for i := range pool {
		rng := rngFor(seed, "body/"+strconv.Itoa(i))
		if i%serveGeoEvery == serveGeoEvery-1 {
			t := addressTable(b, rng, "mix-geo-"+strconv.Itoa(i), serveGeoRows, serveGeoCols)
			data, err := json.Marshal(server.GeocodeRequestJSON{Table: tableJSON(t)})
			if err != nil {
				panic(err) // unreachable: the table was just encoded
			}
			pool[i] = body{geocode: true, path: "/v1/geocode", data: data, tbl: t}
			continue
		}
		src := canonical[i%len(canonical)]
		rows := min(serveWindowRows, src.NumRows())
		start := rng.Intn(src.NumRows() - rows + 1)
		t := table.New(fmt.Sprintf("mix-%d-%s", i, src.Name), src.Columns...)
		// Odd ranks suffix their Text cells with the rank, so no other body
		// shares their queries and only a repeat of the same body can hit.
		unique := i%2 == 1
		for r := start; r < start+rows; r++ {
			cells := append([]string(nil), src.Rows[r]...)
			if unique {
				for j, c := range src.Columns {
					if c.Type == table.Text && cells[j] != "" {
						cells[j] += " " + strconv.Itoa(i)
					}
				}
			}
			if err := t.AppendRow(cells...); err != nil {
				panic(err) // unreachable: the row has the source table's width
			}
		}
		data, err := json.Marshal(server.AnnotateRequestJSON{Table: tableJSON(t)})
		if err != nil {
			panic(err) // unreachable: the table was just encoded
		}
		pool[i] = body{path: "/v1/annotate", data: data, tbl: t}
	}
	return pool
}

// arrival is one open-loop request: when it is due, as an offset from the
// start of the run, and which pool rank it sends.
type arrival struct {
	due time.Duration
	idx int
}

// schedule draws Poisson arrivals at rate lambda over dur, each with a
// Zipf-ranked body.
func schedule(seed int64, lambda float64, dur time.Duration, pool int) []arrival {
	gaps := rngFor(seed, "arrivals")
	ranks := rand.NewZipf(rngFor(seed, "ranks"), serveZipfS, 1, uint64(pool-1))
	var out []arrival
	var t float64
	for {
		t += gaps.ExpFloat64() / lambda
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, idx: int(ranks.Uint64())})
	}
}
