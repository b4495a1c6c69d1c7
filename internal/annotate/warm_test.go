package annotate

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/qcache"
	"repro/internal/table"
)

// The warm request's cheap steps — pre-processing and the Eq. 2 cell key —
// are written to cost what their input requires. The expressions they
// replaced stay here as the oracles every differential and fuzz target below
// compares against.

// phoneRe is the phone rule as the pattern isPhone spells out by hand.
var phoneRe = regexp.MustCompile(`^\+?[\d() .-]{7,20}$`)

// oracleCheck is the §5.1 cascade with no guard: all five patterns tried in
// order on every cell, words counted by splitting.
func oracleCheck(content string) SkipReason {
	c := strings.TrimSpace(content)
	switch {
	case c == "":
		return SkipEmpty
	case urlRe.MatchString(c):
		return SkipURL
	case emailRe.MatchString(c):
		return SkipEmail
	case coordRe.MatchString(c):
		return SkipCoords
	case numRe.MatchString(c):
		return SkipNumeric
	case phoneRe.MatchString(c) && strings.ContainsAny(c, "0123456789"):
		return SkipPhone
	case len(strings.Fields(c)) > maxCellWords:
		return SkipLong
	}
	return SkipNone
}

// oracleNormCell is the definition of the occurrence-count key.
func oracleNormCell(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// warmSeeds are the inputs on which a byte-wise ASCII pass and the Unicode
// definitions could part ways, plus one member of every first-byte class the
// five patterns are guarded by.
var warmSeeds = []string{
	"", " ", "Chez Panisse", "chez panisse", "  Chez   Panisse  ", "ALL CAPS", "a",
	"non\u00a0breaking", "\u00a0lead", "next\u0085line", "trail\u0085", "\u2003em\u2003space", // NBSP, NEL, EM SPACE: spaces only to Unicode
	"\u212aelvin", "200 \u212a", // Kelvin sign lower-cases to ASCII k
	"\u0130stanbul", "DI\u0307YARBAKIR", // dotted capital I; I + combining dot
	"Musée du Louvre", "MUSÉE", "straße",
	"tab\there", "cr\rlf\r\n", "vt\vff\f", "\t\n\v\f\r run \t\n\v\f\r", "a \t b", "\x1cfs", "nul\x00byte",
	"\xff", "ok\xffbad", "\xc3", "trunc\xe2\x84", "\xed\xa0\x80", // invalid UTF-8
	strings.Repeat("long ", 13) + "tail", strings.Repeat("x", 64), strings.Repeat("x", 65), // around the 64-byte stack buffer
	strings.Repeat("Ab  ", 40), strings.Repeat("w ", 8) + "w", strings.Repeat("w ", 7) + "w", strings.Repeat("w ", 9),
	strings.Repeat("w\u00a0", 7) + "w", strings.Repeat("w\u00a0", 8) + "w", // 8 and 9 words split by NBSP,
	strings.Repeat("w\u0085", 7) + "w", strings.Repeat("w\u0085", 8) + "w", // by NEL,
	strings.Repeat("w\u2003", 7) + "w", strings.Repeat("w\u2003", 8) + "w", // and by EM SPACE
	"http://example.com/x", "https://e.org", "http", "httpx://e", "http://a b", "HTTP://E.COM", "www.example.com", "www.", "wwwexample", "hello www.x.com",
	"info@example.com", "a@b", "a@b.c", "@", "a@@b.c", "a b@c.d", "x@y.z trailing",
	"48.8566, 2.3522", "-48.85;2.35", "48N 2E", "48° 2°", "-", "--1", "1234,5",
	"12345", "3.14", "1,000,000", "-5%", ".5", ",5", "%", "5%%", "1e9", "\u0663\u0664", // Arabic-Indic digits are not \d
	"(410) 555-0199", "+33 1 44 55 66 77", "+", "++33 1 44 55 66", "(((((((", ". . . . . .", "555-0199", "123456", "1234567", "+123456789012345678901", ") 555 0199", "- 555 0199",
	"12345678901234567890", "123456789012345678901", "+12345678901234567890", "+123456", "+1234567", "(410) 555-0199\n", "(410) 555\u00a00199", "(410) 555-O199", // the {7,20} bounds
}

// checkGrid crosses every possible first byte with tails that complete each
// pattern, so every guard is driven from both sides.
func checkGrid(visit func(string)) {
	tails := []string{"", "1", "ttp://x", "ww.x", "@b.c", "8.85, 2.35", "2,345%", "410) 555-0199", " 555 0199", "lain name", " a b c d e f g h", " "}
	for b := 0; b < 256; b++ {
		for _, tail := range tails {
			visit(string([]byte{byte(b)}) + tail)
		}
	}
}

func requireCheckMatches(t *testing.T, s string) {
	t.Helper()
	if got, want := CheckCell(s), oracleCheck(s); got != want {
		t.Fatalf("CheckCell(%q) = %q, unguarded cascade says %q", s, got, want)
	}
	// The word counter at thresholds below the constant too: short seeds split
	// by Unicode spaces reach a count that only n = 1 or 3 can tell apart.
	for _, n := range []int{1, 3, maxCellWords} {
		if got, want := moreWordsThan(s, n), len(strings.Fields(s)) > n; got != want {
			t.Fatalf("moreWordsThan(%q, %d) = %v, strings.Fields says %v", s, n, got, want)
		}
	}
}

func requireNormCellMatches(t *testing.T, s string) {
	t.Helper()
	if got, want := normCell(s), oracleNormCell(s); got != want {
		t.Fatalf("normCell(%q) = %q, definition gives %q", s, got, want)
	}
}

// TestCheckMatchesOracle: the guarded cascade decides every seed and every
// (first byte × tail) cell as the unguarded one does.
func TestCheckMatchesOracle(t *testing.T) {
	for _, s := range warmSeeds {
		requireCheckMatches(t, s)
	}
	checkGrid(func(s string) { requireCheckMatches(t, s) })
}

// TestNormCellMatchesOracle: the one-pass key equals its definition.
func TestNormCellMatchesOracle(t *testing.T) {
	for _, s := range warmSeeds {
		requireNormCellMatches(t, s)
	}
	checkGrid(func(s string) { requireNormCellMatches(t, s) })
}

func FuzzPreprocessorCheck(f *testing.F) {
	for _, s := range warmSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { requireCheckMatches(t, s) })
}

func FuzzNormCell(f *testing.F) {
	for _, s := range warmSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { requireNormCellMatches(t, s) })
}

// TestAllocsWarm pins what the rewrites bought: an ordinary entity name passes
// pre-processing, and a cell already in key form yields its key, without
// touching the heap; and the geo stage allocates by the cell only where its
// output does — a candidate list per cell, a rendered name per distinct place.
func TestAllocsWarm(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if CheckCell("National Museum of Glass") != SkipNone {
			t.Fatal("entity name skipped")
		}
	}); n != 0 {
		t.Errorf("Check on a plain entity name: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if normCell("national museum of glass") != "national museum of glass" {
			t.Fatal("normal-form cell changed")
		}
	}); n != 0 {
		t.Errorf("normCell on normal-form input: %v allocs/op, want 0", n)
	}
	if raceEnabled {
		return
	}
	// AllocsPerRun runs at GOMAXPROCS 1: one pooled component scratch grows to
	// this table, which TestGeoAnnotateWorkerInvariance's bound has room for.
	g := gazetteer.SyntheticScale(42, 6).Freeze()
	tbl := addressTable(t, g, 200, 4)
	cells := float64(tbl.NumRows() * tbl.NumCols())
	if n := testing.AllocsPerRun(5, func() {
		gas, err := Config{Gazetteer: g}.GeoAnnotate(context.Background(), tbl)
		if err != nil || float64(len(gas)) != cells {
			t.Fatalf("%d annotations, error %v; want one per cell", len(gas), err)
		}
	}); n >= 3*cells {
		t.Errorf("GeoAnnotate over %v address cells: %v allocs/op, want fewer than 3 per cell", cells, n)
	}
}

// warmTable is a table shaped like the benchmark's: entity names, a phone
// column pre-processing rules out, a Location column that drives the row-city
// vote, and a verbose column.
func warmTable(tb testing.TB, f *fixture) *table.Table {
	tb.Helper()
	tbl := table.New("warm",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Phone", Type: table.Text},
		table.Column{Header: "Address", Type: table.Location},
		table.Column{Header: "Notes", Type: table.Text},
	)
	names := []string{"Musée Lavande", "National Museum of Glass", "Harbor Gallery of Art", "Chez Martin", "The Golden Fig", "Melisse"}
	cities := f.gaz.Cities()
	for i := 0; i < 24; i++ {
		city := cities[i%len(cities)]
		addr := f.gaz.Name(city)
		if streets := f.gaz.StreetsIn(city); len(streets) > 0 {
			addr = f.gaz.Name(streets[i%len(streets)]) + ", " + addr
		}
		if err := tbl.AppendRow(names[i%len(names)], fmt.Sprintf("(410) 555-01%02d", i), addr,
			"open daily, closed on public holidays; call ahead for groups of ten or more"); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkWarmTable is one fully-cached request: every query is a qcache
// hit, so what is timed is plan (pre-processing, row-city vote), merge and
// post-processing — the in-package view of the annotate_warm workload.
func BenchmarkWarmTable(b *testing.B) {
	f := newFixture(b)
	c := f.config()
	c.Postprocess = true
	c.Disambiguate = true
	c.Gazetteer = f.gaz
	c.Cache = qcache.New()
	tbl := warmTable(b, f)
	ctx := context.Background()
	cold := mustResult(c.Annotate(ctx, tbl))
	if cold.CacheMisses == 0 || len(cold.Annotations) == 0 {
		b.Fatalf("warming run: %d misses, %d annotations", cold.CacheMisses, len(cold.Annotations))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Annotate(ctx, tbl)
		if err != nil || res.CacheMisses != 0 {
			b.Fatalf("warm run: err %v, %d misses", err, res.CacheMisses)
		}
	}
}
