package gazetteer

import (
	"strings"
	"testing"
)

// normIndex probes byNorm with a key built in a stack buffer; its definition,
// byNorm[normalizeName(name)], is the oracle.

// normSeeds are the spellings on which a byte-wise ASCII pass and
// normalizeName's Unicode steps (fold, lower-case, Fields) could part ways.
var normSeeds = []string{
	"", " ", "Cedar Lane", "cedar lane", "CEDAR LANE", "  Cedar   Lane  ", "cedar\tlane", "cedar\r\nlane", "\v\fcedar lane\v\f",
	"cedar\x1clane", "cedar\x00lane", "cedar\x7flane", // control bytes that are not spaces
	"C\u00e9dar Lane", "Ce\u0301dar Lane", "C\u00c9DAR LANE", "\u0301cedar lane", // NFC, NFD, upper-case NFC, a bare combining mark
	"cedar\u00a0lane", "cedar\u0085lane", "\u00a0cedar lane", "cedar\u2003lane", // NBSP, NEL, EM SPACE: spaces only to Unicode
	"\u212aelvin Way", "kelvin way", // Kelvin sign lower-cases to ASCII k
	"\u0130stanbul", "istanbul", "I\u0307stanbul", "Stra\u00dfe", "strasse", "\u00d8stergade", // folds that change length
	"\xff", "cedar\xfflane", "cedar lane\xc3", "\xed\xa0\x80", // invalid UTF-8
	strings.Repeat("x", 64), strings.Repeat("x", 65), strings.Repeat("Long Name ", 9), // around the 64-byte stack buffer
	"Washington", "D.C.", "Region 1-1", "Terra 1",
}

// normIndexGaz holds one location per seed (so every seed's key exists, and
// spellings that normalize alike share a bucket) over a synthetic base.
func normIndexGaz() *Frozen {
	b := SyntheticScale(42, 1)
	for _, s := range normSeeds {
		b.Add(s, Country, NoLocation)
	}
	return b.Freeze()
}

func requireNormIndexMatches(t *testing.T, f *Frozen, s string) {
	t.Helper()
	want, wantOK := f.byNorm[normalizeName(s)]
	if got, ok := f.normIndex(s); got != want || ok != wantOK {
		t.Fatalf("normIndex(%q) = (%d, %v), byNorm[normalizeName] = (%d, %v)", s, got, ok, want, wantOK)
	}
}

// TestNormIndexMatchesOracle: every seed, and every re-spelling of it that
// must (or must not) reach the same key, resolves as the definition does.
func TestNormIndexMatchesOracle(t *testing.T) {
	f := normIndexGaz()
	for _, s := range normSeeds {
		for _, v := range []string{s, strings.ToUpper(s), strings.ToLower(s), " " + s + "\t", strings.ReplaceAll(s, " ", "  "), s + "x", "\u00e9" + s} {
			requireNormIndexMatches(t, f, v)
		}
		if _, ok := f.normIndex(s); !ok {
			t.Fatalf("normIndex(%q) misses a name the gazetteer holds", s)
		}
	}
}

func FuzzNormIndex(f *testing.F) {
	for _, s := range normSeeds {
		f.Add(s)
	}
	fixed := normIndexGaz()
	f.Fuzz(func(t *testing.T, s string) {
		requireNormIndexMatches(t, fixed, s)
		// A gazetteer holding s itself: the lookup must hit, under any casing
		// and padding.
		b := New()
		b.Add(s, Country, NoLocation)
		own := b.Freeze()
		for _, v := range []string{s, strings.ToUpper(s), " " + s + " "} {
			requireNormIndexMatches(t, own, v)
		}
		if _, ok := own.normIndex(s); !ok {
			t.Fatalf("normIndex(%q) misses the gazetteer's only name", s)
		}
	})
}

// TestAllocsWarm: looking an ASCII place name up — whatever its casing and
// spacing — builds no heap key, splitting an address builds no segment list,
// geocoding one allocates its result and nothing else, and a full name is one
// string.
func TestAllocsWarm(t *testing.T) {
	f := normIndexGaz()
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := f.normIndex("  CEDAR   Lane "); !ok {
			t.Fatal("lookup missed")
		}
	}); n != 0 {
		t.Errorf("normIndex on an ASCII name: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if a := ParseAddress("12 Cedar Court, Aberdale, MD, 20740, USA"); a.StreetNumber != 12 || a.Country != "USA" {
			t.Fatalf("parsed %+v", a)
		}
	}); n != 0 {
		t.Errorf("ParseAddress: %v allocs/op, want 0", n)
	}
	// A "Street, City" address only one location answers to.
	var street LocID
	var addr string
	for _, c := range f.Cities() {
		for _, s := range f.StreetsIn(c) {
			if a := f.Name(s) + ", " + f.Name(c); street == NoLocation && len(f.Geocode(a)) == 1 {
				street, addr = s, a
			}
		}
	}
	if street == NoLocation {
		t.Fatal("no unambiguous street address in the gazetteer")
	}
	if n := testing.AllocsPerRun(100, func() {
		if cands := f.Geocode(addr); len(cands) != 1 || cands[0] != street {
			t.Fatalf("Geocode(%q) = %v, want [%d]", addr, cands, street)
		}
	}); n > 1 {
		t.Errorf("Geocode(%q): %v allocs/op, want the result alone", addr, n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if f.FullName(street) == "" {
			t.Fatal("street without a name")
		}
	}); n != 1 {
		t.Errorf("FullName of a street: %v allocs/op, want 1", n)
	}
}
