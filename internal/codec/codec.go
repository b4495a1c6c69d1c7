// Package codec is the one little-endian codec under the four persistence
// formats (TIDX, TGAZ, TCLF, TSNP). Encoders append to a []byte and cannot
// fail. Decoding walks one bounds-checked cursor over a []byte held in
// memory: a read past the end records a truncation error and yields zero, the
// error sticks, and every element count is refused unless the bytes that
// remain can hold that many records — so no reader sizes an allocation from a
// number the stream has not paid for.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendHeader appends a component stream's opening: magic, then version.
func AppendHeader(b []byte, magic string, version uint32) []byte {
	return AppendU32(append(b, magic...), version)
}

// AppendU32 appends v.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendI64 appends v.
func AppendI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

// AppendF64 appends v's IEEE 754 bits, so floats round-trip exactly.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendStr appends s prefixed by its u32 length.
func AppendStr(b []byte, s string) []byte { return append(AppendU32(b, uint32(len(s))), s...) }

// Reader is the decoding cursor. After the first failure every read yields
// zero (nil for Bytes) and Err reports that failure, so a parser decodes a
// run of fields and checks once — before it validates them, indexes a block
// or loops without a validation of its own.
type Reader struct {
	what string // error prefix, e.g. "search: corrupt index"
	data []byte
	off  int
	err  error
}

// NewReader returns a cursor at the start of data; what prefixes its errors.
func NewReader(what string, data []byte) *Reader { return &Reader{what: what, data: data} }

// Err is the first failure, nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Offset is the cursor's position in the stream.
func (r *Reader) Offset() int { return r.off }

// Remaining is the number of bytes not yet read.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Corrupt fails the parse for a validation failure described by format and
// returns the cursor's failure: the earlier one when there is one (the zero
// it yielded is what failed validation), the described one otherwise.
func (r *Reader) Corrupt(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%s (%s)", r.what, fmt.Sprintf(format, args...))
	}
	return r.err
}

// Done ends a parse: it returns the first failure, or an error when bytes
// remain unread.
func (r *Reader) Done() error {
	if r.Remaining() != 0 {
		return r.Corrupt("%d trailing bytes", r.Remaining())
	}
	return r.err
}

// Header reads what AppendHeader wrote and fails unless both fields match —
// on the version whatever follows it, so an old stream is refused by name.
func (r *Reader) Header(magic string, version uint32) error {
	if got := r.Bytes(len(magic)); r.err == nil && string(got) != magic {
		return r.Corrupt("bad magic %q", got)
	}
	if got := r.U32(); r.err == nil && got != version {
		return r.Corrupt("unsupported version %d", got)
	}
	return r.err
}

// Bytes returns the next n bytes without copying them.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.err = fmt.Errorf("%s (truncated at byte %d)", r.what, r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a u32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// I64 reads an i64.
func (r *Reader) I64() int64 {
	if b := r.Bytes(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// F64 reads a float stored as its IEEE 754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(uint64(r.I64())) }

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes(int(r.U32()))) }

// Count reads a u32 count of records that each occupy at least minRecord
// bytes, and fails when the bytes that remain cannot hold that many. what
// names the records in the error.
func (r *Reader) Count(what string, minRecord int) int {
	n := r.U32()
	if uint64(n)*uint64(minRecord) > uint64(r.Remaining()) {
		r.Corrupt("%s count %d with %d bytes left", what, n, r.Remaining())
		return 0
	}
	return int(n)
}
