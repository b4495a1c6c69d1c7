package gazetteer

import (
	"fmt"
	"math/rand"
)

// Synthetic builds the gazetteer used by the synthetic universe. It contains
// a handful of countries, states and a few hundred cities, with deliberate
// name collisions at both the city level (Paris TX / Paris TN / Paris,
// France; Washington; College Park MD / GA; Springfield everywhere) and the
// street level (Pennsylvania Avenue, Main Street, Clarksville Street, …),
// reproducing the ambiguity structure of Figure 7 in the paper. The extra
// cities and street assignments are drawn deterministically from seed.
// Synthetic(seed) is SyntheticScale(seed, 1); the two agree exactly on the
// base id range.
func Synthetic(seed int64) *Builder { return SyntheticScale(seed, 1) }

// SyntheticScale builds the synthetic gazetteer at a chosen size: scale <= 1
// is exactly Synthetic(seed) (same locations, same ids); every additional
// scale unit appends one more country with ten states, a hundred cities and
// ~1000 streets (≈1100 locations), drawn deterministically from the same
// seed. City and street names come from small shared pools, so name
// collisions — the ambiguity the disambiguator resolves — grow linearly with
// the gazetteer: at scale ≈ 90 the gazetteer exceeds 100k locations and a
// bare street name geocodes to over a thousand candidates.
func SyntheticScale(seed int64, scale int) *Builder {
	rng := rand.New(rand.NewSource(seed))
	g := New()

	usa := g.Add("USA", Country, NoLocation)
	france := g.Add("France", Country, NoLocation)
	uk := g.Add("United Kingdom", Country, NoLocation)
	italy := g.Add("Italy", Country, NoLocation)
	japan := g.Add("Japan", Country, NoLocation)
	australia := g.Add("Australia", Country, NoLocation)

	// US states (a representative subset).
	states := map[string]LocID{}
	for _, s := range []string{
		"MD", "TX", "TN", "GA", "FL", "AR", "KY", "CA", "NY", "IL",
		"MA", "WA", "OH", "PA", "VA", "MO", "NJ", "MI", "OR", "CO",
	} {
		states[s] = g.Add(s, State, usa)
	}
	// D.C. is modelled as a state-level container so "Washington, D.C."
	// parses like the paper's example.
	dc := g.Add("D.C.", State, usa)

	// Non-US "states" (regions) so every city has a full chain.
	idf := g.Add("Île-de-France", State, france)
	provence := g.Add("Provence", State, france)
	england := g.Add("England", State, uk)
	scotland := g.Add("Scotland", State, uk)
	lazio := g.Add("Lazio", State, italy)
	tuscany := g.Add("Tuscany", State, italy)
	kanto := g.Add("Kanto", State, japan)
	kansai := g.Add("Kansai", State, japan)
	nsw := g.Add("New South Wales", State, australia)
	victoria := g.Add("Victoria", State, australia)

	// Cities with deliberate collisions (name -> multiple states).
	type cityDef struct {
		name  string
		state LocID
	}
	defs := []cityDef{
		{"Washington", dc}, {"Washington", states["GA"]}, {"Washington", states["PA"]},
		{"Paris", states["TX"]}, {"Paris", states["TN"]}, {"Paris", states["KY"]}, {"Paris", idf},
		{"College Park", states["MD"]}, {"College Park", states["GA"]},
		{"Springfield", states["IL"]}, {"Springfield", states["MA"]}, {"Springfield", states["MO"]}, {"Springfield", states["OH"]},
		{"Baltimore", states["MD"]},
		{"Bogata", states["TX"]}, {"Trenton", states["KY"]}, {"Trenton", states["NJ"]},
		{"Lockhart", states["FL"]}, {"Conway", states["AR"]},
		{"New York", states["NY"]}, {"Los Angeles", states["CA"]},
		{"San Francisco", states["CA"]}, {"Santa Monica", states["CA"]},
		{"Chicago", states["IL"]}, {"Boston", states["MA"]},
		{"Seattle", states["WA"]}, {"Portland", states["OR"]}, {"Portland", states["MA"]},
		{"Denver", states["CO"]}, {"Austin", states["TX"]}, {"Houston", states["TX"]},
		{"Nashville", states["TN"]}, {"Memphis", states["TN"]},
		{"Atlanta", states["GA"]}, {"Miami", states["FL"]},
		{"Detroit", states["MI"]}, {"Columbus", states["OH"]}, {"Columbus", states["GA"]},
		{"Richmond", states["VA"]}, {"Richmond", states["CA"]},
		{"Marseille", provence}, {"Lyon", provence}, {"Nice", provence},
		{"London", england}, {"Manchester", england}, {"Oxford", england},
		{"Cambridge", england}, {"Cambridge", states["MA"]},
		{"Edinburgh", scotland}, {"Glasgow", scotland},
		{"Rome", lazio}, {"Florence", tuscany}, {"Pisa", tuscany},
		{"Tokyo", kanto}, {"Yokohama", kanto}, {"Osaka", kansai}, {"Kyoto", kansai},
		{"Sydney", nsw}, {"Melbourne", victoria},
	}
	cities := make([]LocID, 0, len(defs))
	for _, d := range defs {
		cities = append(cities, g.Add(d.name, City, d.state))
	}

	// Shared street-name pool; each street name is instantiated in many
	// cities so that a bare street segment geocodes ambiguously.
	streetNames := []string{
		"Pennsylvania Avenue", "Main Street", "Clarksville Street",
		"Wofford Lane", "Oak Street", "Maple Avenue", "Park Road",
		"High Street", "Church Street", "Station Road", "Broadway",
		"Elm Street", "Washington Street", "Lake Drive", "River Road",
		"Hill Street", "Market Street", "King Street", "Queen Street",
		"Mill Lane", "Bridge Road", "Victoria Street", "Garden Avenue",
		"Sunset Boulevard", "Ocean Drive", "College Avenue",
		"Liberty Street", "Union Street", "Cedar Lane", "Chestnut Street",
	}
	for _, sn := range streetNames {
		// Instantiate in 4..10 random cities.
		n := 4 + rng.Intn(7)
		perm := rng.Perm(len(cities))
		for i := 0; i < n && i < len(perm); i++ {
			g.Add(sn, Street, cities[perm[i]])
		}
	}
	// Guarantee the paper's Figure 7 cases regardless of the draw.
	ensureStreet(g, "Pennsylvania Avenue", "Washington", dc)
	ensureStreet(g, "Pennsylvania Avenue", "Baltimore", states["MD"])
	ensureStreet(g, "Wofford Lane", "College Park", states["MD"])
	ensureStreet(g, "Wofford Lane", "Lockhart", states["FL"])
	ensureStreet(g, "Wofford Lane", "Conway", states["AR"])
	ensureStreet(g, "Clarksville Street", "Paris", states["TX"])
	ensureStreet(g, "Clarksville Street", "Bogata", states["TX"])
	ensureStreet(g, "Clarksville Street", "Trenton", states["KY"])
	grow(g, rng, scale)
	return g
}

// scaleCityNames and scaleStreetNames are the shared name pools the growth
// rounds draw from; reusing a small pool across many cities is what makes
// the scaled gazetteer ambiguous rather than merely large.
var (
	scaleCityNames   = crossNames([]string{"Aber", "Avon", "Bel", "Brook", "Clar", "Cres", "Dun", "East", "Fair", "Glen", "Green", "Hart", "Kings", "Lake", "Mill", "North", "Oak", "Spring", "West", "Wood"}, []string{"dale", "field", "ford", "haven", "mont", "port", "side", "ton", "ville", "wick"})
	scaleStreetNames = crossNames([]string{"Alder", "Aspen", "Bay", "Birch", "Cedar", "Cherry", "Dogwood", "Fern", "Hazel", "Holly", "Juniper", "Laurel", "Linden", "Magnolia", "Myrtle", "Poplar", "Rowan", "Spruce", "Walnut", "Willow"}, []string{" Avenue", " Court", " Road"})
)

// crossNames returns the cross product prefix+suffix in prefix-major order.
func crossNames(prefixes, suffixes []string) []string {
	out := make([]string, 0, len(prefixes)*len(suffixes))
	for _, p := range prefixes {
		for _, s := range suffixes {
			out = append(out, p+s)
		}
	}
	return out
}

// grow appends scale-1 growth rounds to the base gazetteer, continuing the
// base construction's deterministic random stream.
func grow(g *Builder, rng *rand.Rand, scale int) {
	for r := 1; r < scale; r++ {
		country := g.Add(fmt.Sprintf("Terra %d", r), Country, NoLocation)
		for s := 1; s <= 10; s++ {
			state := g.Add(fmt.Sprintf("Region %d-%d", r, s), State, country)
			for c := 0; c < 10; c++ {
				city := g.Add(scaleCityNames[rng.Intn(len(scaleCityNames))], City, state)
				for k, n := 0, 8+rng.Intn(5); k < n; k++ {
					g.Add(scaleStreetNames[rng.Intn(len(scaleStreetNames))], Street, city)
				}
			}
		}
	}
}

// ensureStreet adds the street to the named city in the given state unless it
// already exists there.
func ensureStreet(g *Builder, street, city string, state LocID) {
	target := g.find(city, City, state)
	if target == NoLocation {
		target = g.Add(city, City, state)
	}
	if g.find(street, Street, target) == NoLocation {
		g.Add(street, Street, target)
	}
}

// find returns the first location with exactly this name, kind and parent,
// or NoLocation. A linear scan: only ensureStreet asks, a handful of times,
// before the growth rounds.
func (g *Builder) find(name string, kind Kind, parent LocID) LocID {
	for i := 1; i < len(g.locs); i++ {
		if g.locs[i] == (location{name: name, kind: kind, parent: parent}) {
			return LocID(i)
		}
	}
	return NoLocation
}
