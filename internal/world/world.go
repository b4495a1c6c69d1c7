package world

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/gazetteer"
)

// Pool distinguishes the two entity populations the experiments need.
type Pool int

const (
	// KBPool entities populate the knowledge base and train the
	// classifiers; they never occur in evaluation tables (DBpedia knows
	// *some* restaurants, just not the ones in your table).
	KBPool Pool = iota
	// TablePool entities appear in the evaluation tables; only kbCoverage
	// of them are also in the knowledge base, reproducing the paper's
	// observation that just 22% of table entities exist in
	// Yago/DBpedia/Freebase.
	TablePool
	// WikiPool entities appear in the Wiki Manual comparison dataset
	// (§6.3). Wikipedia-table entities are overwhelmingly known to
	// catalogues (that dataset was built to evaluate a catalogue-based
	// annotator), so their KB coverage is high (wikiKBCoverage).
	WikiPool
)

// Entity is one individual in the synthetic universe.
type Entity struct {
	ID           int
	Name         string
	Type         Type
	Pool         Pool
	InKB         bool
	City         gazetteer.LocID // NoLocation for non-spatial types
	Street       gazetteer.LocID
	StreetNumber int
	Phone        string
	URL          string
	Email        string
	Description  string
	// AmbiguousWith names the non-Γ sense sharing this entity's name
	// ("jazz label" for the Melisse case); empty when unambiguous.
	AmbiguousWith string
}

// Address returns the entity's structured postal address; the zero Address
// for non-spatial entities.
func (e *Entity) Address(g *gazetteer.Frozen) gazetteer.Address {
	if e.Street == gazetteer.NoLocation {
		return gazetteer.Address{}
	}
	return gazetteer.Address{
		StreetNumber: e.StreetNumber,
		Street:       g.Name(e.Street),
		City:         g.Name(e.City),
		State:        g.Name(g.Parent(e.City)),
	}
}

// Confuser is a non-Γ sense that shares its name with an entity.
type Confuser struct {
	Name string
	Kind string
}

// Config controls universe generation. The zero value selects the defaults
// used by the experiments.
type Config struct {
	Seed int64
	// KBPerType is the number of knowledge-base entities per type; these
	// feed classifier training. Default 240. (The paper collects ~45k
	// train+test snippets per type; we scale the corpus down by ~15x and
	// report the actual sizes in Table 2.)
	KBPerType int
	// AmbiguityRate is the probability that a person or single-word-POI
	// name gains a confuser sense. Default 0.35.
	AmbiguityRate float64
	// WikiPerType is the number of Wiki-Manual entities per type.
	// Default 20 (the paper's Wiki Manual has 36 tables of modest size).
	WikiPerType int

	// Adversarial knobs for the scenario matrix. All default to off, and
	// when off they consume no rng draws, so the generated universe —
	// and every golden derived from it — is byte-identical to the
	// pre-knob generator.

	// GazScale scales the synthetic gazetteer (see
	// gazetteer.SyntheticScale): larger scales draw street and city names
	// from shared pools, so homonymous locations become common and the
	// disambiguation graph has to work harder. 0 or 1 = the standard
	// gazetteer.
	GazScale int
	// POIHomonymRate is the probability that a POI entity draws its name
	// from a small pooled list instead of its type grammar, manufacturing
	// cross-type homonyms ("Melisse" the restaurant and "Melisse" the
	// hotel). 0 = off.
	POIHomonymRate float64
	// DiacriticRate is the probability that a POI entity's name is
	// accented (AccentName), exercising the unicode normalization path
	// end to end. 0 = off.
	DiacriticRate float64
}

// The evaluation tables hold TableEntityCounts entities per type (the paper's
// §6.2 dataset); kbCoverage of them are also in the knowledge base (§1), and
// wikiKBCoverage of the Wiki entities.
const (
	kbCoverage     = 0.22
	wikiKBCoverage = 0.85
)

func (c Config) withDefaults() Config {
	if c.KBPerType == 0 {
		c.KBPerType = 240
	}
	if c.AmbiguityRate == 0 {
		c.AmbiguityRate = 0.35
	}
	if c.WikiPerType == 0 {
		c.WikiPerType = 20
	}
	return c
}

// World is the generated universe.
type World struct {
	Config    Config
	Gaz       *gazetteer.Frozen
	Entities  []*Entity
	Confusers []Confuser

	byType map[Type][]*Entity
	byName map[string][]*Entity
	cities []gazetteer.LocID
}

// Generate builds a universe deterministically from cfg.Seed.
func Generate(cfg Config) *World {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gazScale := cfg.GazScale
	if gazScale < 1 {
		gazScale = 1
	}
	gaz := gazetteer.SyntheticScale(cfg.Seed^0x6761_7a65, gazScale).Freeze()
	w := &World{
		Config: cfg,
		Gaz:    gaz,
		byType: map[Type][]*Entity{},
		byName: map[string][]*Entity{},
		cities: gaz.Cities(),
	}
	cityNames := make([]string, len(w.cities))
	for i, c := range w.cities {
		cityNames[i] = gaz.Name(c)
	}
	ng := &nameGen{rng: rng, cities: cityNames}
	// Size the person-name pools to ~3x the people population (see
	// nameGen): collisions stay frequent enough to keep people hard, but
	// training labels for knowledge-base people remain mostly clean.
	people := 0
	for _, t := range PeopleTypes {
		people += cfg.KBPerType + TableEntityCounts[t] + cfg.WikiPerType
	}
	first := int(math.Sqrt(1.5 * float64(people)))
	if first < 8 {
		first = 8
	}
	ng.peopleFirst, ng.peopleLast = first, 2*first

	used := map[string]bool{}
	nextID := 1
	spawn := func(t Type, pool Pool, inKB bool) *Entity {
		e := &Entity{ID: nextID, Type: t, Pool: pool, InKB: inKB}
		nextID++
		// Spatial placement first so city-based names are consistent.
		cityName := ""
		if Category(t) == "poi" {
			city := w.cities[rng.Intn(len(w.cities))]
			e.City = city
			cityName = gaz.Name(city)
			if streets := gaz.StreetsIn(city); len(streets) > 0 {
				e.Street = streets[rng.Intn(len(streets))]
				e.StreetNumber = 1 + rng.Intn(999)
			}
		}
		// Adversarial knobs decide once per entity (before the retry
		// loop, so retries don't consume extra knob draws).
		isPOI := Category(t) == "poi"
		homonym := cfg.POIHomonymRate > 0 && isPOI && rng.Float64() < cfg.POIHomonymRate
		accent := cfg.DiacriticRate > 0 && isPOI && rng.Float64() < cfg.DiacriticRate
		// Unique name within the universe (retry a few times, then
		// suffix with a locality qualifier).
		for attempt := 0; ; attempt++ {
			name := ng.Name(t, cityName)
			if homonym {
				// Pooled names collide across types on purpose; the
				// uniqueness key below still forbids same-type dupes.
				name = homonymNames[rng.Intn(len(homonymNames))]
			}
			if attempt > 8 {
				name = name + " " + cityName
			}
			if attempt > 16 {
				// Pooled homonym names can exhaust every qualified
				// variant; a numeric suffix guarantees termination
				// (unreachable when the knobs are off — grammar names
				// never run that dry).
				name = fmt.Sprintf("%s %d", name, attempt-16)
			}
			if accent {
				name = AccentName(name)
			}
			key := strings.ToLower(name) + "|" + string(t)
			if !used[key] {
				used[key] = true
				e.Name = name
				break
			}
		}
		w.fillAttributes(e, rng)
		// Ambiguity: person names collide naturally; additionally some
		// names gain a confuser sense.
		short := len(strings.Fields(e.Name)) <= 2
		if (Category(t) == "people" || short) && rng.Float64() < cfg.AmbiguityRate {
			kind := confuserKinds[rng.Intn(len(confuserKinds))]
			e.AmbiguousWith = kind
			w.Confusers = append(w.Confusers, Confuser{Name: e.Name, Kind: kind})
		}
		w.Entities = append(w.Entities, e)
		w.byType[t] = append(w.byType[t], e)
		lower := strings.ToLower(e.Name)
		w.byName[lower] = append(w.byName[lower], e)
		return e
	}

	for _, t := range AllTypes {
		kbCount := cfg.KBPerType
		if t == SimpsonsEpisode || t == Mine {
			// DBpedia provides few entities for these types
			// (§6.1 Table 2 shows the small corpora).
			kbCount = cfg.KBPerType / 3
		}
		for i := 0; i < kbCount; i++ {
			spawn(t, KBPool, true)
		}
		for i := 0; i < TableEntityCounts[t]; i++ {
			inKB := rng.Float64() < kbCoverage
			spawn(t, TablePool, inKB)
		}
		for i := 0; i < cfg.WikiPerType; i++ {
			inKB := rng.Float64() < wikiKBCoverage
			spawn(t, WikiPool, inKB)
		}
	}
	return w
}

// fillAttributes populates contact details and the verbose description used
// by description columns (long enough for the §5.1 length filter to drop).
func (w *World) fillAttributes(e *Entity, rng *rand.Rand) {
	slug := strings.ToLower(strings.Join(strings.Fields(strings.Map(alnumOnly, e.Name)), "-"))
	if slug == "" {
		slug = fmt.Sprintf("entity-%d", e.ID)
	}
	e.Phone = fmt.Sprintf("(%03d) 555-%04d", 201+rng.Intn(700), rng.Intn(10000))
	e.URL = "http://www." + slug + ".example.com"
	e.Email = "info@" + slug + ".example.com"
	cityName := ""
	if e.City != gazetteer.NoLocation {
		cityName = " in " + w.Gaz.Name(e.City)
	}
	e.Description = fmt.Sprintf(
		"A well known %s%s that visitors praise for its friendly staff, convenient opening hours and remarkable atmosphere throughout the year.",
		TypeName(e.Type), cityName)
}

func alnumOnly(r rune) rune {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == ' ':
		return r
	}
	return ' '
}

// OfType returns every entity of type t, in generation order.
func (w *World) OfType(t Type) []*Entity { return w.byType[t] }

// KBEntities returns the entities of type t present in the knowledge base
// (the whole KBPool plus the covered fraction of the TablePool).
func (w *World) KBEntities(t Type) []*Entity {
	var out []*Entity
	for _, e := range w.byType[t] {
		if e.InKB {
			out = append(out, e)
		}
	}
	return out
}

// TableEntities returns the evaluation-table entities of type t.
func (w *World) TableEntities(t Type) []*Entity {
	var out []*Entity
	for _, e := range w.byType[t] {
		if e.Pool == TablePool {
			out = append(out, e)
		}
	}
	return out
}

// WikiEntities returns the Wiki-Manual comparison entities of type t.
func (w *World) WikiEntities(t Type) []*Entity {
	var out []*Entity
	for _, e := range w.byType[t] {
		if e.Pool == WikiPool {
			out = append(out, e)
		}
	}
	return out
}

// ByName returns the entities whose name equals name (case-insensitive);
// several entities may share a name across types.
func (w *World) ByName(name string) []*Entity {
	return w.byName[strings.ToLower(name)]
}
