package gazetteer

import (
	"testing"
	"testing/quick"
)

// buildSmall is a ten-location hand-built gazetteer; USA is location 1.
func buildSmall(t testing.TB) *Builder {
	t.Helper()
	g := New()
	usa := g.Add("USA", Country, NoLocation)
	md := g.Add("MD", State, usa)
	dc := g.Add("D.C.", State, usa)
	tx := g.Add("TX", State, usa)
	balt := g.Add("Baltimore", City, md)
	wash := g.Add("Washington", City, dc)
	paris := g.Add("Paris", City, tx)
	g.Add("Pennsylvania Avenue", Street, balt)
	g.Add("Pennsylvania Avenue", Street, wash)
	g.Add("Clarksville Street", Street, paris)
	return g
}

func TestHierarchy(t *testing.T) {
	g := buildSmall(t).Freeze()
	streets := g.Lookup("Pennsylvania Avenue", Street)
	if len(streets) != 2 {
		t.Fatalf("want 2 Pennsylvania Avenues, got %d", len(streets))
	}
	for _, s := range streets {
		if g.Kind(s) != Street {
			t.Errorf("kind = %v, want Street", g.Kind(s))
		}
		city := g.Parent(s)
		if g.Kind(city) != City {
			t.Errorf("parent of street has kind %v, want City", g.Kind(city))
		}
		chain := g.Containers(s)
		if len(chain) != 3 {
			t.Errorf("container chain length = %d, want 3 (city, state, country)", len(chain))
		}
		if g.Kind(chain[len(chain)-1]) != Country {
			t.Errorf("chain should end at a country")
		}
	}
}

func TestCityOf(t *testing.T) {
	g := buildSmall(t).Freeze()
	s := g.Lookup("Clarksville Street", Street)[0]
	city := g.CityOf(s)
	if g.Name(city) != "Paris" {
		t.Errorf("CityOf street = %q, want Paris", g.Name(city))
	}
	if g.CityOf(city) != city {
		t.Errorf("CityOf(city) should be the city itself")
	}
	usa := g.Lookup("USA", Country)[0]
	if g.CityOf(usa) != NoLocation {
		t.Errorf("CityOf(country) should be NoLocation")
	}
}

func TestAddPanicsOnBadHierarchy(t *testing.T) {
	g := buildSmall(t)
	usa := LocID(1)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on street directly under country")
		}
	}()
	g.Add("Bad Street", Street, usa)
}

func TestFullName(t *testing.T) {
	g := buildSmall(t).Freeze()
	var washAve LocID
	for _, s := range g.Lookup("Pennsylvania Avenue", Street) {
		if g.Name(g.CityOf(s)) == "Washington" {
			washAve = s
		}
	}
	want := "Pennsylvania Avenue, Washington, D.C., USA"
	if got := g.FullName(washAve); got != want {
		t.Errorf("FullName = %q, want %q", got, want)
	}
	// The invalid id has no name: its column entries are the zero ones, not
	// location 1's.
	if name, full := g.Name(NoLocation), g.FullName(NoLocation); name != "" || full != "" {
		t.Errorf("NoLocation is named %q, in full %q; want neither", name, full)
	}
}

func TestParseAddress(t *testing.T) {
	cases := []struct {
		in   string
		want Address
	}{
		{"12 Main Street", Address{StreetNumber: 12, Street: "Main Street"}},
		{"1600 Pennsylvania Avenue, Washington, D.C., USA",
			Address{StreetNumber: 1600, Street: "Pennsylvania Avenue", City: "Washington", State: "D.C.", Country: "USA"}},
		{"Main Street, Springfield, 62704", Address{Street: "Main Street", City: "Springfield", Zip: "62704"}},
		{"Washington, D.C.", Address{Street: "Washington", City: "D.C."}},
		{"", Address{}},
		{" , , ", Address{}},
	}
	for _, c := range cases {
		if got := ParseAddress(c.in); got != c.want {
			t.Errorf("ParseAddress(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestAddressFormatParseRoundTrip(t *testing.T) {
	f := func(num uint8, hasCity, hasState bool) bool {
		a := Address{StreetNumber: int(num%90) + 1, Street: "Oak Street"}
		if hasCity {
			a.City = "Springfield"
			// States are positional after the city, so a state can
			// only round-trip when a city is present.
			if hasState {
				a.State = "IL"
			}
		}
		got := ParseAddress(a.Format())
		return got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeocodeAmbiguousStreet(t *testing.T) {
	g := buildSmall(t).Freeze()
	cands := g.Geocode("1600 Pennsylvania Avenue")
	if len(cands) != 2 {
		t.Fatalf("ambiguous street should have 2 candidates, got %d", len(cands))
	}
	cities := map[string]bool{}
	for _, c := range cands {
		cities[g.Name(g.CityOf(c))] = true
	}
	if !cities["Baltimore"] || !cities["Washington"] {
		t.Errorf("candidates = %v, want Baltimore and Washington", cities)
	}
}

func TestGeocodeNarrowedByCity(t *testing.T) {
	g := buildSmall(t).Freeze()
	cands := g.Geocode("1600 Pennsylvania Avenue, Washington")
	if len(cands) != 1 {
		t.Fatalf("city-qualified street should have 1 candidate, got %d", len(cands))
	}
	if g.Name(g.CityOf(cands[0])) != "Washington" {
		t.Errorf("wrong city %q", g.Name(g.CityOf(cands[0])))
	}
}

func TestGeocodeCityFallback(t *testing.T) {
	g := buildSmall(t).Freeze()
	cands := g.Geocode("Washington, D.C.")
	if len(cands) != 1 {
		t.Fatalf("want 1 candidate for Washington, D.C., got %d", len(cands))
	}
	if g.Kind(cands[0]) != City {
		t.Errorf("kind = %v, want City", g.Kind(cands[0]))
	}
}

func TestGeocodeUnknown(t *testing.T) {
	g := buildSmall(t).Freeze()
	if cands := g.Geocode("99 Nowhere Boulevard, Atlantis"); cands != nil {
		t.Errorf("unknown address should geocode to nil, got %v", cands)
	}
	if cands := g.Geocode(""); cands != nil {
		t.Errorf("empty address should geocode to nil, got %v", cands)
	}
	// Nothing surviving the qualifiers is nil too, not an empty list: a known
	// street under an unknown city, under a known city and an unknown state,
	// and a city (the street-less fallback) under an unknown state.
	for _, addr := range []string{"Pennsylvania Avenue, Atlantis", "Pennsylvania Avenue, Washington, ZZ", "Washington, ZZ"} {
		if cands := g.Geocode(addr); cands != nil {
			t.Errorf("Geocode(%q) = %#v, want nil", addr, cands)
		}
	}
}

func TestSyntheticGazetteer(t *testing.T) {
	g := Synthetic(42).Freeze()
	if g.Len() < 100 {
		t.Fatalf("synthetic gazetteer too small: %d locations", g.Len())
	}
	// The Figure 7 ambiguities must exist.
	if n := len(g.Geocode("1600 Pennsylvania Avenue")); n < 2 {
		t.Errorf("Pennsylvania Avenue candidates = %d, want >= 2", n)
	}
	if n := len(g.Geocode("Wofford Lane")); n < 3 {
		t.Errorf("Wofford Lane candidates = %d, want >= 3", n)
	}
	if n := len(g.Geocode("Clarksville Street")); n < 3 {
		t.Errorf("Clarksville Street candidates = %d, want >= 3", n)
	}
	if n := len(g.Lookup("Paris", City)); n < 2 {
		t.Errorf("Paris cities = %d, want >= 2", n)
	}
	// Narrowing by state works on the synthetic data.
	cands := g.Geocode("Clarksville Street, Paris, TX")
	if len(cands) != 1 {
		t.Errorf("fully qualified address candidates = %d, want 1", len(cands))
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	g1 := Synthetic(7).Freeze()
	g2 := Synthetic(7).Freeze()
	if g1.Len() != g2.Len() {
		t.Fatalf("same seed produced different sizes: %d vs %d", g1.Len(), g2.Len())
	}
	for i := 1; i <= g1.Len(); i++ {
		id := LocID(i)
		if g1.Name(id) != g2.Name(id) || g1.Kind(id) != g2.Kind(id) || g1.Parent(id) != g2.Parent(id) {
			t.Fatalf("location %d differs between same-seed builds", i)
		}
	}
}

func TestCitiesAndStreetsIn(t *testing.T) {
	g := Synthetic(42).Freeze()
	cities := g.Cities()
	if len(cities) == 0 {
		t.Fatal("no cities")
	}
	streetsTotal := 0
	for _, c := range cities {
		for _, s := range g.StreetsIn(c) {
			if g.Parent(s) != c {
				t.Errorf("StreetsIn returned street outside city")
			}
			streetsTotal++
		}
	}
	if streetsTotal == 0 {
		t.Error("no streets in any city")
	}
}
