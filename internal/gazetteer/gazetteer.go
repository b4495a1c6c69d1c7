// Package gazetteer provides the geographic substrate that replaces the
// Google Geocoding API used in §5.2.2 of the paper. It models geographic
// locations in a strict containment hierarchy (streets ⊂ cities ⊂ states ⊂
// countries), formats and parses postal addresses — including the partial,
// ambiguous addresses the paper highlights — and geocodes an address string
// to the set of candidate interpretations.
//
// The lifecycle has two types. A Builder is written: Add accumulates
// locations during dataset construction and Freeze compiles them. A Frozen is
// read: an immutable gazetteer with compact columnar storage (interned names,
// precomputed container chains, per-parent child ranges and a candidate
// lookup index) that serves every query, concurrently, and persists to a
// versioned binary snapshot.
package gazetteer

import (
	"fmt"
	"strings"

	"repro/internal/textproc"
)

// Kind classifies a location in the containment hierarchy.
type Kind int

// The hierarchy levels, from most to least specific.
const (
	Street Kind = iota
	City
	State
	Country
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case Street:
		return "street"
	case City:
		return "city"
	case State:
		return "state"
	case Country:
		return "country"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LocID identifies a location inside a gazetteer. The zero LocID is invalid.
// A Builder and the Frozen gazetteer it freezes into share the same id space.
type LocID int

// NoLocation is the invalid LocID.
const NoLocation LocID = 0

// location is the internal record for one geographic location.
type location struct {
	name   string
	kind   Kind
	parent LocID // direct container; NoLocation for countries
}

// Builder is the gazetteer under construction: an append-only store of
// locations that answers no queries. It is not safe for concurrent use; call
// Freeze once the dataset is complete to obtain the immutable,
// concurrency-safe form.
type Builder struct {
	locs []location // index 0 unused so that LocID 0 stays invalid
}

// New returns an empty builder.
func New() *Builder {
	return &Builder{locs: make([]location, 1)}
}

// Add inserts a location under the given parent and returns its id. Countries
// take parent = NoLocation. Add panics if the parent/kind combination
// violates the hierarchy, since that is a programming error in dataset
// construction, not a runtime condition.
func (g *Builder) Add(name string, kind Kind, parent LocID) LocID {
	if kind == Country {
		if parent != NoLocation {
			panic("gazetteer: country cannot have a parent")
		}
	} else {
		if parent == NoLocation {
			panic("gazetteer: " + kind.String() + " requires a parent")
		}
		pk := g.locs[parent].kind
		if pk != kind+1 {
			panic(fmt.Sprintf("gazetteer: %s cannot be contained in %s", kind, pk))
		}
	}
	g.locs = append(g.locs, location{name: name, kind: kind, parent: parent})
	return LocID(len(g.locs) - 1)
}

// normalizeName lower-cases, folds diacritics and collapses whitespace for
// name keys, so "Cédar Lane" and "cedar lane" resolve to the same locations
// whichever spelling a table (or a messy NFD rendering of it) uses. All the
// built-in synthetic names are ASCII, so folding changes nothing for them.
func normalizeName(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(textproc.FoldDiacritics(s))), " ")
}
