package codec

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := append(AppendHeader(nil, "MAGC", 3), 7)
	b = AppendU32(b, 1<<31+5)
	b = AppendI64(b, -42)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendStr(b, "héllo")
	b = AppendU32(b, 2) // a count of two 4-byte records
	b = AppendU32(AppendU32(b, 10), 11)

	r := NewReader("test", b)
	if err := r.Header("MAGC", 3); err != nil {
		t.Fatal(err)
	}
	if r.U8() != 7 || r.U32() != 1<<31+5 || r.I64() != -42 {
		t.Error("integer round trip")
	}
	if f := r.F64(); f != 0 || !math.Signbit(f) {
		t.Errorf("F64 = %v, want -0", f)
	}
	if s := r.Str(); s != "héllo" {
		t.Errorf("Str = %q", s)
	}
	if n := r.Count("record", 4); n != 2 || r.U32() != 10 || r.U32() != 11 {
		t.Errorf("Count = %d", n)
	}
	if r.Offset() != len(b) || r.Remaining() != 0 {
		t.Errorf("offset %d, remaining %d after a %d-byte stream", r.Offset(), r.Remaining(), len(b))
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

// TestFailureSticks: the first failure is the one every later call reports,
// and reads after it yield zero without moving the cursor.
func TestFailureSticks(t *testing.T) {
	r := NewReader("test: corrupt", AppendU32(AppendU32(nil, 9), 100))
	if r.U32() != 9 {
		t.Fatal("first field")
	}
	if s := r.Str(); s != "" { // claims 100 bytes, none follow
		t.Errorf("Str past the end = %q", s)
	}
	first := r.Err()
	if first == nil || first.Error() != "test: corrupt (truncated at byte 8)" {
		t.Fatalf("Err = %v", first)
	}
	if r.U8() != 0 || r.U32() != 0 || r.I64() != 0 || r.F64() != 0 || r.Bytes(0) != nil || r.Count("x", 1) != 0 {
		t.Error("a read after the failure yielded a value")
	}
	if r.Corrupt("validation of the zero") != first || r.Done() != first || r.Offset() != 8 {
		t.Error("a later call replaced the first failure or moved the cursor")
	}
}

// TestHeader: a wrong magic, a wrong version (whatever follows) and a
// truncated header are three different failures.
func TestHeader(t *testing.T) {
	stream := AppendHeader(nil, "MAGC", 3)
	for want, data := range map[string][]byte{
		`test: corrupt (bad magic "XAGC")`:      append([]byte("X"), stream[1:]...),
		"test: corrupt (unsupported version 3)": stream,
		"test: corrupt (truncated at byte 4)":   stream[:6],
		"test: corrupt (truncated at byte 0)":   stream[:3],
	} {
		version := uint32(3)
		if strings.Contains(want, "unsupported") {
			version = 4
		}
		if err := NewReader("test: corrupt", data).Header("MAGC", version); err == nil || err.Error() != want {
			t.Errorf("Header = %v, want %s", err, want)
		}
	}
}

func TestCorruptAndTrailing(t *testing.T) {
	r := NewReader("test: corrupt", []byte{1, 2})
	if err := r.Done(); err == nil || err.Error() != "test: corrupt (2 trailing bytes)" {
		t.Errorf("Done = %v", err)
	}
	r = NewReader("test: corrupt", nil)
	if err := r.Corrupt("kind %d", 4); err.Error() != "test: corrupt (kind 4)" || r.Err() != err {
		t.Errorf("Corrupt = %v, Err = %v", err, r.Err())
	}
}

// TestCountRule: a count is accepted exactly when count × minRecord bytes
// remain, whatever the count's size.
func TestCountRule(t *testing.T) {
	for _, c := range []struct {
		count     uint32
		tail, min int
		ok        bool
	}{
		{0, 0, 16, true},
		{3, 36, 12, true},
		{3, 35, 12, false},
		{1 << 22, 4, 12, false},
		{math.MaxUint32, 1 << 10, 1 << 20, false}, // the product overflows 32 bits, not the check
	} {
		r := NewReader("test: corrupt", append(AppendU32(nil, c.count), make([]byte, c.tail)...))
		n := r.Count("term", c.min)
		if ok := r.Err() == nil; ok != c.ok || (ok && n != int(c.count)) || (!ok && n != 0) {
			t.Errorf("Count(%d records of %d bytes, %d left) = %d, %v", c.count, c.min, c.tail, n, r.Err())
		}
		if !c.ok && !strings.Contains(r.Err().Error(), "term count") {
			t.Errorf("rejection does not name the records: %v", r.Err())
		}
	}
}
