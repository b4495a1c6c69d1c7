package gazetteer

import (
	"fmt"
	"io"

	"repro/internal/codec"
)

// Frozen gazetteer persistence: a compact binary snapshot so a gazetteer
// built (or synthesized at scale) once can be reloaded without regeneration,
// mirroring the search index's versioned format. Format (little-endian):
//
//	magic "TGAZ" | version u32
//	locCount u32 | nameCount u32
//	names: nameCount len-prefixed strings (interned exact names)
//	locs: per location 1..locCount: nameID u32, kind u32, parent u32
//	integrity: chainLen u32 | childLen u32 | normCount u32
//
// Only the primary columns are stored; the derived structures (normalized
// names, container chains, child ranges, lookup buckets, cityOf) are rebuilt
// on load and checked against the stored integrity section, keeping the file
// small at the cost of a cheap re-derivation — the same trade the search
// index makes. The reader bounds both counts by the bytes that remain and
// validates the hierarchy (kind/parent agreement, parents preceding children)
// so a corrupt file returns an error instead of allocating for a count it
// cannot hold or panicking dataset-construction invariants.

const (
	gazMagic   = "TGAZ"
	gazVersion = 1
)

// AppendTo appends the frozen gazetteer's TGAZ stream to b.
func (f *Frozen) AppendTo(b []byte) []byte {
	b = codec.AppendHeader(b, gazMagic, gazVersion)
	b = codec.AppendU32(b, uint32(f.Len()))
	b = codec.AppendU32(b, uint32(len(f.names)))
	for _, name := range f.names {
		b = codec.AppendStr(b, name)
	}
	for i := 1; i <= f.Len(); i++ {
		b = codec.AppendU32(b, uint32(f.nameID[i]))
		b = codec.AppendU32(b, uint32(f.kinds[i]))
		b = codec.AppendU32(b, uint32(f.parents[i]))
	}
	// Integrity section: derived-structure sizes the reader verifies after
	// rebuilding.
	b = codec.AppendU32(b, uint32(len(f.chains)))
	b = codec.AppendU32(b, uint32(len(f.children)))
	return codec.AppendU32(b, uint32(len(f.norms)))
}

// WriteTo writes the TGAZ stream to w in one Write and returns the byte
// count w accepted.
func (f *Frozen) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.AppendTo(nil))
	return int64(n), err
}

// ReadFrozen loads the TGAZ stream data (written by WriteTo, held in memory
// by the caller), validating the header, the hierarchy and the
// derived-structure integrity section. The result behaves identically to the
// Frozen that was written.
func ReadFrozen(data []byte) (*Frozen, error) {
	br := codec.NewReader("gazetteer: corrupt snapshot", data)
	if err := br.Header(gazMagic, gazVersion); err != nil {
		return nil, err
	}
	// Both counts precede both tables: a location record is 12 bytes, a name
	// at least its 4-byte length.
	locCount := br.Count("location", 12)
	nameCount := br.Count("name", 4)
	if nameCount > locCount {
		return nil, br.Corrupt("%d locations, %d names", locCount, nameCount)
	}
	names := make([]string, nameCount)
	for i := range names {
		names[i] = br.Str()
	}
	locs := make([]location, 1, locCount+1)
	for id := uint32(1); id <= uint32(locCount); id++ {
		nameID, kind, parent := br.U32(), br.U32(), br.U32()
		if err := br.Err(); err != nil {
			return nil, err
		}
		if nameID >= uint32(len(names)) {
			return nil, fmt.Errorf("gazetteer: location %d: name id %d out of range", id, nameID)
		}
		if kind > uint32(Country) {
			return nil, fmt.Errorf("gazetteer: location %d: bad kind %d", id, kind)
		}
		k := Kind(kind)
		switch {
		case k == Country && parent != 0:
			return nil, fmt.Errorf("gazetteer: location %d: country with parent %d", id, parent)
		case k != Country && (parent == 0 || parent >= id):
			return nil, fmt.Errorf("gazetteer: location %d: bad parent %d", id, parent)
		case k != Country && locs[parent].kind != k+1:
			return nil, fmt.Errorf("gazetteer: location %d: %s contained in %s", id, k, locs[parent].kind)
		}
		locs = append(locs, location{name: names[nameID], kind: k, parent: LocID(parent)})
	}
	f := freeze(locs)
	for _, check := range []struct {
		name string
		want int
	}{
		{"chain length", len(f.chains)},
		{"child count", len(f.children)},
		{"normalized name count", len(f.norms)},
	} {
		if got := int(br.U32()); got != check.want {
			return nil, br.Corrupt("%s mismatch: %d stored, %d rebuilt", check.name, got, check.want)
		}
	}
	if err := br.Done(); err != nil {
		return nil, err
	}
	return f, nil
}
