package gazetteer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestTGAZBytesLocked pins the format: the sha256 of the TGAZ stream of two
// fixed gazetteers, recorded from the bufio + binary.Write writer (commit
// 2fd69de) before the shared codec replaced it.
func TestTGAZBytesLocked(t *testing.T) {
	for _, c := range []struct {
		name string
		f    *Frozen
		want string
	}{
		{"Synthetic(1)", Synthetic(1).Freeze(), "a5b9f79198f2794635eac4b018b3b7f9ee944314df976d87742374a1ee5ab38d"},
		{"SyntheticScale(9, 2)", SyntheticScale(9, 2).Freeze(), "73c2903e3b8d77958456a2a725f26df977c221d8f6c795c2f2e6ec2536db3059"},
	} {
		sum := sha256.Sum256(c.f.AppendTo(nil))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, recorded %s", c.name, got, c.want)
		}
	}
}

// patched returns a copy of data with the u32 at off replaced.
func patched(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// Offsets of the two header counts in a TGAZ stream.
const locCountAt, nameCountAt = 8, 12

// frozenStreamSeeds are FuzzReadFrozen's starting points, checked in under
// testdata/fuzz by name: the valid streams of a hand-built and a synthetic
// gazetteer, and the hand-built one (buildSmall: USA is location 1, MD 2,
// the first street 8) with a single count, nameID, kind, parent or integrity
// field changed.
func frozenStreamSeeds(t testing.TB) map[string][]byte {
	f := buildSmall(t).Freeze()
	built := f.AppendTo(nil)
	// Location id's record starts 12 bytes per location before the 12-byte
	// integrity section: nameID, kind, parent.
	loc := func(id int) int { return len(built) - 12 - 12*(f.Len()-id+1) }
	return map[string][]byte{
		"valid-built":           built,
		"valid-synthetic":       Synthetic(1).Freeze().AppendTo(nil),
		"valid-street-moved":    patched(built, loc(9)+8, 5),
		"loc-count-lie":         patched(built, locCountAt, 1<<22),
		"both-counts-lie":       patched(patched(built, locCountAt, 1<<22), nameCountAt, 1<<22),
		"name-count-short":      patched(built, nameCountAt, 3),
		"name-id-out-of-range":  patched(built, loc(1), 1000),
		"name-id-aliased":       patched(built, loc(3), 1),
		"kind-country-to-city":  patched(built, loc(1)+4, uint32(City)),
		"kind-out-of-range":     patched(built, loc(1)+4, 4),
		"parent-forward":        patched(built, loc(2)+8, 5),
		"parent-wrong-level":    patched(built, loc(8)+8, 2),
		"integrity-chain":       patched(built, len(built)-12, 1),
		"integrity-children":    patched(built, len(built)-8, 1),
		"integrity-norms":       patched(built, len(built)-4, 1),
		"trailing-byte":         append(append([]byte(nil), built...), 0),
		"truncated-in-locs":     built[:loc(4)+6],
		"header-only-count-lie": patched(patched(built, locCountAt, 1<<22), nameCountAt, 1<<22)[:16],
	}
}

// FuzzReadFrozen feeds arbitrary bytes to the TGAZ reader. It must reject
// with an error — never panic, never size anything from an unchecked count —
// or accept; an accepted gazetteer must geocode without panicking and
// persist to bytes that load and persist to themselves.
func FuzzReadFrozen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fz, err := ReadFrozen(data)
		if err != nil {
			return
		}
		for _, addr := range []string{"Pennsylvania Avenue, Washington", "Clarksville Street, Paris, TX", "Paris", ""} {
			fz.Geocode(addr)
		}
		first := fz.AppendTo(nil)
		again, err := ReadFrozen(first)
		if err != nil {
			t.Fatalf("an accepted gazetteer persisted to a stream the reader rejects: %v", err)
		}
		if !bytes.Equal(again.AppendTo(nil), first) {
			t.Fatal("AppendTo -> ReadFrozen -> AppendTo is not a byte fixed point")
		}
	})
}

// TestFrozenStreamCorpusCheckedIn: the checked-in corpus is exactly what
// frozenStreamSeeds produces, and the reader accepts the valid streams and
// rejects every other one.
func TestFrozenStreamCorpusCheckedIn(t *testing.T) {
	for name, data := range frozenStreamSeeds(t) {
		file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadFrozen", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data); string(file) != want {
			t.Errorf("%s: checked-in corpus file differs from the generated seed", name)
		}
		_, err = ReadFrozen(data)
		if valid := strings.HasPrefix(name, "valid-"); valid != (err == nil) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// TestReadFrozenRejectsCountLieCheaply: a location or name count the
// remaining bytes cannot hold is refused before anything is sized from it.
// 1<<22 passed the former fixed cap: the bare header cost 64 MB for the name
// table before EOF, the full stream 128 MB for the location table.
func TestReadFrozenRejectsCountLieCheaply(t *testing.T) {
	seeds := frozenStreamSeeds(t)
	for _, name := range []string{"header-only-count-lie", "both-counts-lie", "loc-count-lie"} {
		lie := seeds[name]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrozen(lie)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "location count") {
			t.Fatalf("%s: err = %v, want a location count rejection", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", name, len(lie), got)
		}
	}
}
