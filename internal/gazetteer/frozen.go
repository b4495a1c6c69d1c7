package gazetteer

import (
	"strings"

	"repro/internal/textproc"
)

// Frozen is the immutable, concurrency-safe gazetteer a Builder freezes
// into, and the only reader. Storage is columnar and compact: names are
// interned once (exact and normalized forms), every location is four small
// integers (name, normalized name, kind, parent), container chains and the
// containing city are precomputed per location, children are grouped per
// parent as CSR ranges, and a candidate-lookup index maps each normalized
// name to its id bucket. Every query method is differentially and fuzz
// tested against the naive row scans of reference_test.go. Frozen persists to
// a versioned binary snapshot (see persist.go).
//
// Index 0 of every per-location column is a zero entry so LocID 0 stays
// invalid, mirroring the Builder's layout.
type Frozen struct {
	names []string // interned exact names, first-appearance order
	norms []string // interned normalized names, first-appearance order

	nameID  []int32 // per location: index into names
	normID  []int32 // per location: index into norms
	kinds   []uint8 // per location: Kind
	parents []int32 // per location: direct container id
	cityOf  []int32 // per location: containing city id (0 above city level)

	// chains holds every location's container chain (direct container
	// first, country last), concatenated; location id's chain is
	// chains[chainOff[id]:chainOff[id+1]].
	chainOff []int32
	chains   []LocID

	// children groups location ids by parent: parent p's children are
	// children[childOff[p]:childOff[p+1]], in increasing id order. Index 0
	// holds the countries (parent NoLocation).
	childOff []int32
	children []LocID

	// byNorm maps a normalized name to its index in norms; ids groups all
	// location ids by normalized name, in increasing id order per bucket:
	// norm n's bucket is ids[bucketOff[n]:bucketOff[n+1]]. This is the
	// candidate-lookup index behind Lookup/LookupAny/Geocode.
	byNorm    map[string]int32
	bucketOff []int32
	ids       []LocID

	cities []LocID // all city ids, increasing
}

// Freeze converts the builder's current contents into an immutable Frozen
// gazetteer. The builder remains usable (and may keep growing); the frozen
// copy is an independent snapshot.
func (g *Builder) Freeze() *Frozen { return freeze(g.locs) }

// freeze builds the columnar form from the row-oriented location records.
// It is shared by Builder.Freeze and ReadFrozen; locs[0] is the unused zero
// entry and every parent id is smaller than its child's id (the Builder
// guarantees this by construction, ReadFrozen validates it).
func freeze(locs []location) *Frozen {
	n := len(locs) // including the zero entry
	f := &Frozen{
		nameID:  make([]int32, n),
		normID:  make([]int32, n),
		kinds:   make([]uint8, n),
		parents: make([]int32, n),
		cityOf:  make([]int32, n),
		byNorm:  map[string]int32{},
	}

	// Intern names and fill the per-location columns.
	nameIdx := map[string]int32{}
	for i := 1; i < n; i++ {
		l := locs[i]
		ni, ok := nameIdx[l.name]
		if !ok {
			ni = int32(len(f.names))
			nameIdx[l.name] = ni
			f.names = append(f.names, l.name)
		}
		norm := normalizeName(l.name)
		mi, ok := f.byNorm[norm]
		if !ok {
			mi = int32(len(f.norms))
			f.byNorm[norm] = mi
			f.norms = append(f.norms, norm)
		}
		f.nameID[i] = ni
		f.normID[i] = mi
		f.kinds[i] = uint8(l.kind)
		f.parents[i] = int32(l.parent)
		if l.kind == City {
			f.cityOf[i] = int32(i)
			f.cities = append(f.cities, LocID(i))
		} else if l.kind < City {
			f.cityOf[i] = f.cityOf[l.parent] // parent precedes child
		}
	}

	// Container chains: chain(i) = parent(i) + chain(parent(i)); parents
	// precede children, so one ascending pass suffices for both sizing and
	// filling.
	f.chainOff = make([]int32, n+1)
	for i := 1; i < n; i++ {
		clen := int32(0)
		if p := f.parents[i]; p != 0 {
			clen = f.chainOff[p+1] - f.chainOff[p] + 1
		}
		f.chainOff[i+1] = f.chainOff[i] + clen
	}
	f.chains = make([]LocID, f.chainOff[n])
	for i := 1; i < n; i++ {
		if p := f.parents[i]; p != 0 {
			off := f.chainOff[i]
			f.chains[off] = LocID(p)
			copy(f.chains[off+1:f.chainOff[i+1]], f.chains[f.chainOff[p]:f.chainOff[p+1]])
		}
	}

	// Per-parent child ranges (CSR): count, prefix-sum, fill ascending so
	// each range is sorted by id.
	counts := make([]int32, n+1)
	for i := 1; i < n; i++ {
		counts[f.parents[i]]++
	}
	f.childOff = make([]int32, n+1)
	for p := 0; p < n; p++ {
		f.childOff[p+1] = f.childOff[p] + counts[p]
	}
	f.children = make([]LocID, n-1)
	next := make([]int32, n)
	copy(next, f.childOff[:n])
	for i := 1; i < n; i++ {
		p := f.parents[i]
		f.children[next[p]] = LocID(i)
		next[p]++
	}

	// Candidate-lookup index: bucket ids per normalized name, ascending.
	bcounts := make([]int32, len(f.norms)+1)
	for i := 1; i < n; i++ {
		bcounts[f.normID[i]]++
	}
	f.bucketOff = make([]int32, len(f.norms)+1)
	for b := 0; b < len(f.norms); b++ {
		f.bucketOff[b+1] = f.bucketOff[b] + bcounts[b]
	}
	f.ids = make([]LocID, n-1)
	bnext := make([]int32, len(f.norms))
	copy(bnext, f.bucketOff[:len(f.norms)])
	for i := 1; i < n; i++ {
		b := f.normID[i]
		f.ids[bnext[b]] = LocID(i)
		bnext[b]++
	}
	return f
}

// Len returns the number of locations stored.
func (f *Frozen) Len() int { return len(f.kinds) - 1 }

// Name returns the bare name of a location; NoLocation has none. (Its column
// entry is the zero one, which would read as the first interned name.)
func (f *Frozen) Name(id LocID) string {
	if id == NoLocation {
		return ""
	}
	return f.names[f.nameID[id]]
}

// Kind returns the hierarchy level of a location.
func (f *Frozen) Kind(id LocID) Kind { return Kind(f.kinds[id]) }

// Parent returns the direct geographic container of a location, or
// NoLocation for countries.
func (f *Frozen) Parent(id LocID) LocID { return LocID(f.parents[id]) }

// Containers returns the chain of containers from the direct one up to the
// country. The chain is precomputed; the returned slice is a fresh copy the
// caller may keep.
func (f *Frozen) Containers(id LocID) []LocID {
	chain := f.chains[f.chainOff[id]:f.chainOff[id+1]]
	if len(chain) == 0 {
		return nil
	}
	return append([]LocID(nil), chain...)
}

// CityOf returns the city containing the location (or the location itself if
// it is a city), or NoLocation when the location sits above city level. The
// answer is precomputed, so this is a single array read.
func (f *Frozen) CityOf(id LocID) LocID { return LocID(f.cityOf[id]) }

// Lookup returns all locations of the given kind with the given name, in
// increasing id order. Name matching is case-insensitive.
func (f *Frozen) Lookup(name string, kind Kind) []LocID {
	return f.filter(f.bucket(name), kind, nil)
}

// filter is the one pass behind Lookup and Geocode: the bucket's locations of
// the given kind that have, for every qualifier (an index into norms), a
// container so named at some level — compared as interned ids against the
// precomputed chains, in bucket order, which is ascending. Nil when none
// survives.
func (f *Frozen) filter(bucket []LocID, kind Kind, quals []int32) []LocID {
	var few [16]LocID // the usual result fits, and is then copied out at its size
	out := few[:0]
next:
	for _, id := range bucket {
		if Kind(f.kinds[id]) != kind {
			continue
		}
		chain := f.chains[f.chainOff[id]:f.chainOff[id+1]]
	qualifier:
		for _, q := range quals {
			for _, c := range chain {
				if f.normID[c] == q {
					continue qualifier
				}
			}
			continue next
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil
	}
	return append([]LocID(nil), out...)
}

// LookupAny returns all locations with the given name regardless of kind, in
// increasing id order.
func (f *Frozen) LookupAny(name string) []LocID {
	b := f.bucket(name)
	if len(b) == 0 {
		return nil
	}
	return append([]LocID(nil), b...)
}

// bucket returns the internal id bucket for a name; callers must not modify
// or retain it.
func (f *Frozen) bucket(name string) []LocID {
	ni, ok := f.normIndex(name)
	if !ok {
		return nil
	}
	return f.ids[f.bucketOff[ni]:f.bucketOff[ni+1]]
}

// normIndex is byNorm[normalizeName(name)] without building the key on the
// heap: an ASCII name — nothing in it folds — is lower-cased and
// space-collapsed into a stack buffer the map is probed with directly; any
// other name takes normalizeName.
func (f *Frozen) normIndex(name string) (int32, bool) {
	var stack [64]byte
	buf, ascii := textproc.AppendNormASCII(stack[:0], name)
	if !ascii {
		ni, ok := f.byNorm[normalizeName(name)]
		return ni, ok
	}
	ni, ok := f.byNorm[string(buf)]
	return ni, ok
}

// FullName renders the location with its full container chain, e.g.
// "Pennsylvania Avenue, Washington, D.C., USA".
func (f *Frozen) FullName(id LocID) string {
	chain := f.chains[f.chainOff[id]:f.chainOff[id+1]]
	n := len(f.Name(id))
	for _, c := range chain {
		n += len(", ") + len(f.Name(c))
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(f.Name(id))
	for _, c := range chain {
		b.WriteString(", ")
		b.WriteString(f.Name(c))
	}
	return b.String()
}

// Cities returns all city ids, in increasing order. The returned slice is a
// fresh copy.
func (f *Frozen) Cities() []LocID {
	return append([]LocID(nil), f.cities...)
}

// StreetsIn returns all street ids belonging to the given city, in
// increasing order — the city's child range of the frozen layout. A non-city
// location yields nil (its children are not streets).
func (f *Frozen) StreetsIn(city LocID) []LocID {
	var out []LocID
	for _, ch := range f.children[f.childOff[city]:f.childOff[city+1]] {
		if Kind(f.kinds[ch]) == Street {
			out = append(out, ch)
		}
	}
	return out
}

// Children returns the direct children of a location (a country's states, a
// state's cities, a city's streets) as a fresh copy in increasing id order;
// Children(NoLocation) returns the countries.
func (f *Frozen) Children(id LocID) []LocID {
	ch := f.children[f.childOff[id]:f.childOff[id+1]]
	if len(ch) == 0 {
		return nil
	}
	return append([]LocID(nil), ch...)
}

// Geocode resolves an address string to its candidate interpretations, in
// increasing id order. Like the Google Geocoding API, a partial address yields
// every location it may refer to: a bare street name returns one candidate
// per city containing a street of that name; a bare city name returns every
// city so named. Later segments narrow the candidates: "Main Street,
// Springfield" keeps only Main Streets whose city is named Springfield. The
// qualifiers are resolved to interned normalized-name ids once, and the name's
// id bucket is then filtered in one pass, so no string is normalized per
// candidate. An unresolvable address returns nil.
func (f *Frozen) Geocode(address string) []LocID {
	a := ParseAddress(address)
	if a.Street == "" {
		return nil
	}
	// The first segment may be a street name or, for street-less addresses
	// ("Washington, D.C., USA"), a city name, whose qualifiers then sit one
	// segment earlier. A street of that name anywhere makes it a street,
	// whatever the qualifiers go on to keep.
	bucket := f.bucket(a.Street)
	qualifiers := [...]string{a.City, a.State, a.Country}
	kind, given := City, 2
	for _, id := range bucket {
		if Kind(f.kinds[id]) == Street {
			kind, given = Street, 3
			break
		}
	}
	var ids [len(qualifiers)]int32
	quals := ids[:0]
	for _, q := range qualifiers[:given] {
		if q == "" {
			continue
		}
		qi, ok := f.normIndex(q)
		if !ok {
			return nil
		}
		quals = append(quals, qi)
	}
	return f.filter(bucket, kind, quals)
}
