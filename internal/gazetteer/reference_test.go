package gazetteer

// The naive gazetteer: every answer recomputed from a Builder's location
// rows — parent walks instead of precomputed chains, per-candidate name
// normalization instead of interned ids, full scans instead of child ranges.
// It is the read side the Builder itself used to carry, kept here as the
// executable specification Frozen is differentially and fuzz tested against.

import "strings"

type reference struct {
	locs   []location
	byName map[string][]LocID // normalized name -> ids, increasing
}

func newReference(g *Builder) *reference {
	r := &reference{locs: g.locs, byName: map[string][]LocID{}}
	for i := 1; i < len(g.locs); i++ {
		key := normalizeName(g.locs[i].name)
		r.byName[key] = append(r.byName[key], LocID(i))
	}
	return r
}

func (r *reference) Len() int              { return len(r.locs) - 1 }
func (r *reference) Name(id LocID) string  { return r.locs[id].name }
func (r *reference) Kind(id LocID) Kind    { return r.locs[id].kind }
func (r *reference) Parent(id LocID) LocID { return r.locs[id].parent }

func (r *reference) Containers(id LocID) []LocID {
	var out []LocID
	for p := r.Parent(id); p != NoLocation; p = r.Parent(p) {
		out = append(out, p)
	}
	return out
}

func (r *reference) CityOf(id LocID) LocID {
	for cur := id; cur != NoLocation; cur = r.Parent(cur) {
		if r.Kind(cur) == City {
			return cur
		}
	}
	return NoLocation
}

func (r *reference) Lookup(name string, kind Kind) []LocID {
	var out []LocID
	for _, id := range r.byName[normalizeName(name)] {
		if r.locs[id].kind == kind {
			out = append(out, id)
		}
	}
	return out
}

func (r *reference) LookupAny(name string) []LocID {
	return append([]LocID(nil), r.byName[normalizeName(name)]...)
}

func (r *reference) FullName(id LocID) string {
	parts := []string{r.Name(id)}
	for _, c := range r.Containers(id) {
		parts = append(parts, r.Name(c))
	}
	return strings.Join(parts, ", ")
}

func (r *reference) Cities() []LocID {
	var out []LocID
	for i := 1; i < len(r.locs); i++ {
		if r.locs[i].kind == City {
			out = append(out, LocID(i))
		}
	}
	return out
}

func (r *reference) StreetsIn(city LocID) []LocID {
	var out []LocID
	for i := 1; i < len(r.locs); i++ {
		if r.locs[i].kind == Street && r.locs[i].parent == city {
			out = append(out, LocID(i))
		}
	}
	return out
}

func (r *reference) Geocode(address string) []LocID {
	a := ParseAddress(address)
	if a.Street == "" {
		return nil
	}
	cands := r.Lookup(a.Street, Street)
	qualifiers := []string{a.City, a.State, a.Country}
	if len(cands) == 0 {
		cands = r.Lookup(a.Street, City)
		qualifiers = []string{a.City, a.State} // segments shift up one level
		if len(cands) == 0 {
			return nil
		}
	}
	for _, q := range qualifiers {
		if q == "" {
			continue
		}
		cands = r.narrow(cands, q)
	}
	return cands
}

// narrow keeps the candidates that have a container (at any level) whose name
// matches the qualifier.
func (r *reference) narrow(cands []LocID, qualifier string) []LocID {
	q := normalizeName(qualifier)
	out := cands[:0]
	for _, id := range cands {
		for _, c := range r.Containers(id) {
			if normalizeName(r.Name(c)) == q {
				out = append(out, id)
				break
			}
		}
	}
	return out
}
