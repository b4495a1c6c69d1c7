package gazetteer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// equalIDs compares two candidate lists element-wise; nil and empty are
// interchangeable (callers only ever check length and elements).
func equalIDs(a, b []LocID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkFrozenEquivalence drives every query method of a frozen gazetteer and
// of the naive reference over the same rows and fails on any divergence.
func checkFrozenEquivalence(t *testing.T, g *reference, f *Frozen) {
	t.Helper()
	if g.Len() != f.Len() {
		t.Fatalf("Len: reference %d, frozen %d", g.Len(), f.Len())
	}
	names := map[string]bool{}
	// From NoLocation: the invalid id answers like the rows' zero entry.
	for i := 0; i <= g.Len(); i++ {
		id := LocID(i)
		names[g.Name(id)] = true
		if g.Name(id) != f.Name(id) {
			t.Fatalf("Name(%d): %q vs %q", id, g.Name(id), f.Name(id))
		}
		if g.Kind(id) != f.Kind(id) {
			t.Fatalf("Kind(%d): %v vs %v", id, g.Kind(id), f.Kind(id))
		}
		if g.Parent(id) != f.Parent(id) {
			t.Fatalf("Parent(%d): %v vs %v", id, g.Parent(id), f.Parent(id))
		}
		if g.CityOf(id) != f.CityOf(id) {
			t.Fatalf("CityOf(%d): %v vs %v", id, g.CityOf(id), f.CityOf(id))
		}
		if !equalIDs(g.Containers(id), f.Containers(id)) {
			t.Fatalf("Containers(%d): %v vs %v", id, g.Containers(id), f.Containers(id))
		}
		if g.FullName(id) != f.FullName(id) {
			t.Fatalf("FullName(%d): %q vs %q", id, g.FullName(id), f.FullName(id))
		}
	}
	for name := range names {
		for k := Street; k <= Country; k++ {
			if !equalIDs(g.Lookup(name, k), f.Lookup(name, k)) {
				t.Fatalf("Lookup(%q, %v) diverges", name, k)
			}
		}
		if !equalIDs(g.LookupAny(name), f.LookupAny(name)) {
			t.Fatalf("LookupAny(%q) diverges", name)
		}
		if !equalIDs(g.LookupAny(" "+name+"  "), f.LookupAny(" "+name+"  ")) {
			t.Fatalf("LookupAny with padding (%q) diverges", name)
		}
	}
	if !equalIDs(g.Cities(), f.Cities()) {
		t.Fatal("Cities diverges")
	}
	// StreetsIn must agree on EVERY id, not only cities: on a state or
	// country both answer nil (children exist but are not streets).
	for i := 1; i <= g.Len(); i++ {
		if !equalIDs(g.StreetsIn(LocID(i)), f.StreetsIn(LocID(i))) {
			t.Fatalf("StreetsIn(%d) (%v) diverges", i, g.Kind(LocID(i)))
		}
	}
}

func TestFrozenMatchesBuilder(t *testing.T) {
	for _, scale := range []int{1, 3} {
		g := SyntheticScale(7, scale)
		checkFrozenEquivalence(t, newReference(g), g.Freeze())
	}
}

// TestFrozenGeocodeMatchesBuilder throws every name in the gazetteer — and
// randomized partial addresses built from them — at the frozen Geocode and at
// the naive one over the builder's rows.
func TestFrozenGeocodeMatchesBuilder(t *testing.T) {
	b := SyntheticScale(11, 2)
	g, f := newReference(b), b.Freeze()
	rng := rand.New(rand.NewSource(13))

	var streetNames, cityNames, qualNames []string
	seen := map[string]bool{}
	for i := 1; i <= g.Len(); i++ {
		id := LocID(i)
		name := g.Name(id)
		if seen[name] {
			continue
		}
		seen[name] = true
		switch g.Kind(id) {
		case Street:
			streetNames = append(streetNames, name)
		case City:
			cityNames = append(cityNames, name)
		default:
			qualNames = append(qualNames, name)
		}
	}
	addrs := []string{"", " , ", "99 Nowhere Boulevard, Atlantis"}
	for _, s := range streetNames {
		addrs = append(addrs, s, fmt.Sprintf("%d %s", 1+rng.Intn(999), s))
	}
	for _, c := range cityNames {
		addrs = append(addrs, c)
	}
	for trial := 0; trial < 500; trial++ {
		street := streetNames[rng.Intn(len(streetNames))]
		city := cityNames[rng.Intn(len(cityNames))]
		qual := qualNames[rng.Intn(len(qualNames))]
		switch trial % 4 {
		case 0:
			addrs = append(addrs, street+", "+city)
		case 1:
			addrs = append(addrs, street+", "+city+", "+qual)
		case 2:
			addrs = append(addrs, city+", "+qual)
		case 3:
			addrs = append(addrs, street+", "+qual)
		}
	}
	for _, addr := range addrs {
		if !equalIDs(g.Geocode(addr), f.Geocode(addr)) {
			t.Fatalf("Geocode(%q): reference %v, frozen %v", addr, g.Geocode(addr), f.Geocode(addr))
		}
	}
}

// TestByNameListsAreSorted asserts the invariant Lookup/LookupAny/Geocode
// rely on instead of sorting per call: every normalized name's id bucket is
// strictly increasing.
func TestByNameListsAreSorted(t *testing.T) {
	g := SyntheticScale(3, 2).Freeze()
	for n, name := range g.norms {
		ids := g.ids[g.bucketOff[n]:g.bucketOff[n+1]]
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("bucket of %q not strictly increasing: %v", name, ids)
			}
		}
	}
	// And the public views observe it.
	for _, name := range []string{"Main Street", "Paris", "Springfield", "USA"} {
		ids := g.LookupAny(name)
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("LookupAny(%q) not sorted: %v", name, ids)
			}
		}
	}
}

func TestFrozenChildren(t *testing.T) {
	f := Synthetic(5).Freeze()
	countries := f.Children(NoLocation)
	if len(countries) == 0 {
		t.Fatal("no countries")
	}
	for _, c := range countries {
		if f.Kind(c) != Country {
			t.Fatalf("child of NoLocation has kind %v", f.Kind(c))
		}
		for _, st := range f.Children(c) {
			if f.Parent(st) != c || f.Kind(st) != State {
				t.Fatalf("child %d of country %d: kind %v parent %v", st, c, f.Kind(st), f.Parent(st))
			}
		}
	}
	if f.Children(countries[0]) == nil {
		t.Fatal("first country has no states")
	}
}

func TestSyntheticScaleExtendsBase(t *testing.T) {
	base := Synthetic(42).Freeze()
	big := SyntheticScale(42, 3).Freeze()
	if big.Len() <= base.Len() {
		t.Fatalf("scale 3 (%d) not larger than base (%d)", big.Len(), base.Len())
	}
	// The base id range is bit-identical: scaling only appends.
	for i := 1; i <= base.Len(); i++ {
		id := LocID(i)
		if base.Name(id) != big.Name(id) || base.Kind(id) != big.Kind(id) || base.Parent(id) != big.Parent(id) {
			t.Fatalf("location %d differs between scale 1 and scale 3", i)
		}
	}
	perRound := big.Len() - base.Len()
	if perRound < 2000 {
		t.Fatalf("two growth rounds added only %d locations", perRound)
	}
	// Determinism at scale.
	again := SyntheticScale(42, 3).Freeze()
	if again.Len() != big.Len() {
		t.Fatalf("same-seed scale builds differ: %d vs %d", again.Len(), big.Len())
	}
}

func TestSyntheticScale100k(t *testing.T) {
	if testing.Short() {
		t.Skip("large gazetteer build")
	}
	g := SyntheticScale(42, 91)
	f := g.Freeze()
	if f.Len() < 100000 {
		t.Fatalf("scale 91 gazetteer has %d locations, want >= 100k", f.Len())
	}
	if f.Len() != len(g.locs)-1 {
		t.Fatalf("freeze lost locations: %d vs %d", f.Len(), len(g.locs)-1)
	}
	// Ambiguity grows with scale: a pooled street name has many candidates.
	if n := len(f.Lookup(scaleStreetNames[0], Street)); n < 100 {
		t.Errorf("pooled street %q has %d instances, want >= 100", scaleStreetNames[0], n)
	}
}

func TestFrozenPersistRoundTrip(t *testing.T) {
	for _, scale := range []int{1, 2} {
		f := SyntheticScale(9, scale).Freeze()
		var buf bytes.Buffer
		n, err := f.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadFrozen(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != f.Len() {
			t.Fatalf("round trip lost locations: %d vs %d", got.Len(), f.Len())
		}
		for i := 1; i <= f.Len(); i++ {
			id := LocID(i)
			if got.Name(id) != f.Name(id) || got.Kind(id) != f.Kind(id) || got.Parent(id) != f.Parent(id) {
				t.Fatalf("location %d differs after round trip", i)
			}
		}
		for _, addr := range []string{"1600 Pennsylvania Avenue", "Wofford Lane", "Paris", "Clarksville Street, Paris, TX"} {
			if !equalIDs(got.Geocode(addr), f.Geocode(addr)) {
				t.Fatalf("Geocode(%q) differs after round trip", addr)
			}
		}
		// Snapshots are byte-reproducible.
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Error("re-serialised snapshot differs byte-wise")
		}
	}
}

func TestReadFrozenRejectsCorruption(t *testing.T) {
	f := Synthetic(1).Freeze()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"integrity mismatch", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		// Byte 12 is the low byte of nameCount; inflating it past
		// locCount trips the header sanity check.
		{"name count overflow", func(b []byte) []byte { b[13] = 0xff; return b }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mutated := c.mutate(append([]byte(nil), good...))
			if _, err := ReadFrozen(mutated); err == nil {
				t.Error("corrupt snapshot loaded without error")
			}
		})
	}
}

func BenchmarkFrozenGeocode(b *testing.B) {
	f := SyntheticScale(42, 8).Freeze()
	addrs := []string{
		"1600 Pennsylvania Avenue",
		"Clarksville Street, Paris, TX",
		scaleStreetNames[0],
		scaleStreetNames[1] + ", " + scaleCityNames[0],
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Geocode(addrs[i%len(addrs)])
	}
}

func BenchmarkFreeze(b *testing.B) {
	g := SyntheticScale(42, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Freeze()
	}
}

// limitedWriter accepts limit bytes then fails, simulating a full disk.
type limitedWriter struct{ limit, written int }

func (l *limitedWriter) Write(p []byte) (int, error) {
	if l.written+len(p) > l.limit {
		k := l.limit - l.written
		l.written += k
		return k, errors.New("disk full")
	}
	l.written += len(p)
	return len(p), nil
}

// TestWriteToReportsFlushedBytes: on a mid-stream write failure, WriteTo's
// byte count reflects what actually reached the writer, not what was
// buffered.
func TestWriteToReportsFlushedBytes(t *testing.T) {
	f := Synthetic(1).Freeze()
	var buf bytes.Buffer
	total, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lw := &limitedWriter{limit: int(total) / 2}
	n, err := f.WriteTo(lw)
	if err == nil {
		t.Fatal("truncated writer did not surface an error")
	}
	if n != int64(lw.written) {
		t.Errorf("WriteTo reported %d bytes, writer received %d", n, lw.written)
	}
	if n > total/2 {
		t.Errorf("reported %d bytes exceeds the writer's %d-byte limit", n, total/2)
	}
}
