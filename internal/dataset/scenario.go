package dataset

import (
	"math/rand"

	"repro/internal/world"
)

// scenarioTypes are the entity types the scenario tables draw from: a spread
// of spatial POIs plus two non-spatial types.
var scenarioTypes = []world.Type{world.Restaurant, world.Museum, world.Hotel, world.Actor, world.Film}

// scenarioRows caps the rows per emitted table: the matrix runs many cells, so
// tables stay small.
const scenarioRows = 18

// ScenarioOptions shapes the scenario-matrix dataset.
type ScenarioOptions struct {
	// MixedKinds mixes all spatial POI types into shared Figure 2 style
	// tables instead of per-type tables, the column-mixing axis of the
	// adversarial worlds.
	MixedKinds bool
}

// BuildScenario assembles the compact evaluation dataset the scenario matrix
// feeds through each ingestion variant: one small table per type (or mixed
// POI tables when MixedKinds is set) from the TablePool, with both
// annotation gold and geographic gold recorded. Deterministic in seed, and
// built on the same emitters as BuildGFT so the tables look like the §6.2
// dataset, just smaller.
func BuildScenario(w *world.World, seed int64, opts ScenarioOptions) *Dataset {
	b := &builder{
		w:   w,
		rng: rand.New(rand.NewSource(seed)),
		ds:  &Dataset{Gold: Gold{}, GeoGold: GeoGold{}},
		pfx: "scn",
	}
	if opts.MixedKinds {
		var spatial, rest []*world.Entity
		for _, t := range scenarioTypes {
			es := w.TableEntities(t)
			if world.HasSpatial(t) {
				spatial = append(spatial, es...)
			} else {
				rest = append(rest, es...)
			}
		}
		b.shuffle(spatial)
		for len(spatial) > 0 {
			n := min(scenarioRows, len(spatial))
			b.mixedPOITable(spatial[:n])
			spatial = spatial[n:]
		}
		for _, t := range scenarioTypes {
			if !world.HasSpatial(t) {
				b.scenarioTyped(rest, t)
			}
		}
		return b.ds
	}
	for _, t := range scenarioTypes {
		b.scenarioTyped(w.TableEntities(t), t)
	}
	return b.ds
}

// scenarioTyped emits one typed table of at most scenarioRows entities of type
// t drawn from es.
func (b *builder) scenarioTyped(es []*world.Entity, t world.Type) {
	var pool []*world.Entity
	for _, e := range es {
		if e.Type == t {
			pool = append(pool, e)
		}
	}
	if len(pool) == 0 {
		return
	}
	b.typedTable(pool[:min(scenarioRows, len(pool))], t)
}
