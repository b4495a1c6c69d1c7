package gazetteer

import (
	"strings"
	"sync"
	"testing"
)

// FuzzParseAddress checks the address parser's structural invariants on
// arbitrary input: no panics, components never contain the separator, the
// zip is zip-shaped, a street number implies a street, and one
// parse∘format round reaches a fixed point (re-parsing the formatted form
// reproduces the parse exactly — the property that pinned the street-number
// extraction to all-digit tokens).
func FuzzParseAddress(f *testing.F) {
	f.Add("1600 Pennsylvania Avenue, Washington, D.C., USA")
	f.Add("Main Street, Springfield, 62704")
	f.Add("Washington, D.C.")
	f.Add(" , , ")
	f.Add("-12 Main Street, Bogata")
	f.Add("007 Main Street")
	f.Add("12 34 Oak Street, 99999, Paris")
	f.Fuzz(func(t *testing.T, s string) {
		a := ParseAddress(s)
		for _, part := range []string{a.Street, a.City, a.State, a.Country, a.Zip} {
			if strings.ContainsRune(part, ',') {
				t.Fatalf("component %q contains a separator (input %q)", part, s)
			}
		}
		if a.Zip != "" && !isZip(a.Zip) {
			t.Fatalf("zip %q is not zip-shaped (input %q)", a.Zip, s)
		}
		if a.StreetNumber != 0 && a.Street == "" {
			t.Fatalf("street number %d without a street (input %q)", a.StreetNumber, s)
		}
		if a.Street == "" && (a.City != "" || a.State != "" || a.Country != "") {
			t.Fatalf("positional components without a street: %+v (input %q)", a, s)
		}
		if b := ParseAddress(a.Format()); b != a {
			t.Fatalf("parse∘format not a fixed point:\n input %q\n first %+v\n again %+v", s, a, b)
		}
	})
}

// fuzzGaz builds the shared gazetteer triple (naive reference, frozen,
// persisted-and-reloaded frozen) once per process for the geocode fuzz
// target.
var fuzzGaz = sync.OnceValues(func() (*reference, [2]*Frozen) {
	b := SyntheticScale(42, 2)
	g, f := newReference(b), b.Freeze()
	reloaded, err := ReadFrozen(f.AppendTo(nil))
	if err != nil {
		panic(err)
	}
	return g, [2]*Frozen{f, reloaded}
})

// FuzzGeocodeRoundTrip feeds arbitrary address strings through the naive
// reference, the frozen gazetteer and one reloaded from its binary snapshot,
// and requires identical candidate lists, every candidate
// id valid and the list strictly increasing.
func FuzzGeocodeRoundTrip(f *testing.F) {
	f.Add("1600 Pennsylvania Avenue")
	f.Add("Wofford Lane")
	f.Add("Clarksville Street, Paris, TX")
	f.Add("Washington, D.C., USA")
	f.Add("Paris")
	f.Add("Oakton")
	f.Add("Cedar Court, Aberdale, Region 1-1, Terra 1")
	f.Add("99 Nowhere Boulevard, Atlantis")
	f.Fuzz(func(t *testing.T, addr string) {
		g, frozen := fuzzGaz()
		want := g.Geocode(addr)
		for i := 1; i < len(want); i++ {
			if want[i-1] >= want[i] {
				t.Fatalf("Geocode(%q) not strictly increasing: %v", addr, want)
			}
		}
		for _, id := range want {
			if id <= NoLocation || int(id) > g.Len() {
				t.Fatalf("Geocode(%q) returned invalid id %d", addr, id)
			}
		}
		for which, fz := range frozen {
			got := fz.Geocode(addr)
			if len(got) != len(want) {
				t.Fatalf("frozen[%d].Geocode(%q) = %v, reference = %v", which, addr, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("frozen[%d].Geocode(%q) = %v, reference = %v", which, addr, got, want)
				}
			}
		}
	})
}
