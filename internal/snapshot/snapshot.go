// Package snapshot implements the TSNP v1 bundle: one file carrying every
// heavy serving artifact — the sharded search index (TIDX v5), the frozen
// gazetteer (TGAZ v1) and both trained snippet classifiers (TCLF v1) — so a
// fleet of replicas loads one prebuilt artifact instead of performing N full
// world rebuilds at boot. Layout (little-endian):
//
//	magic "TSNP" | version u32
//	headerLen u32 | header bytes | headerCRC u32 (IEEE CRC-32 of the header)
//	section payloads, sequentially, in section-table order
//
// The header holds the manifest (seed, scale, classifier kind, shard count,
// component sizes, build metadata) followed by the section table: one entry
// per section with its name, payload length and payload CRC-32. Payloads are
// the unmodified streams of the component formats, so each section's own
// versioning and integrity checks still apply after the CRC gate.
//
// Reads are strictly sequential — manifest, table, then each payload in file
// order — so loading is IO-bound streaming, never seek-bound. Every length
// and count is bounds-checked and every byte of the file is covered by a
// checksum (header by headerCRC, payloads by their table entries), so a
// truncated or bit-flipped file fails with a typed error — *FormatError or
// *ChecksumError — before any component parser sees corrupt bytes.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/classify"
	"repro/internal/codec"
	"repro/internal/gazetteer"
	"repro/internal/search"
)

const (
	// Magic identifies a TSNP stream.
	Magic = "TSNP"
	// Version is the bundle format version this package writes.
	Version = 1

	// maxHeaderLen bounds the manifest + section table; real headers are a
	// few hundred bytes.
	maxHeaderLen = 1 << 20
	// maxSectionLen bounds one section payload; far above any real bundle.
	maxSectionLen = 1 << 40
	// maxSections bounds the section table.
	maxSections = 64
)

// Canonical section names, in file order.
const (
	SectionSearch    = "search"    // TIDX v5 sharded index stream
	SectionGazetteer = "gazetteer" // TGAZ v1 frozen gazetteer stream
	SectionSVM       = "svm"       // TCLF v1 linear SVM stream
	SectionBayes     = "bayes"     // TCLF v1 Naive Bayes stream
)

// FormatError reports a structurally invalid TSNP stream: bad magic,
// unsupported version, truncation, or an out-of-bounds length or count.
type FormatError struct {
	// Reason says what is wrong.
	Reason string
	// Err is the underlying cause (often an io error), when there is one.
	Err error
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("snapshot: %s: %v", e.Reason, e.Err)
	}
	return "snapshot: " + e.Reason
}

func (e *FormatError) Unwrap() error { return e.Err }

// ChecksumError reports a region whose stored CRC-32 does not match its
// bytes — the typed signal for bit rot or a torn write.
type ChecksumError struct {
	// Region is "header" or the section name.
	Region string
	// Want is the stored checksum, Got the one computed from the bytes.
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("snapshot: %s checksum mismatch: stored %08x, computed %08x", e.Region, e.Want, e.Got)
}

// Manifest describes what a bundle was built from, so a loader can refuse a
// file that does not match its configuration instead of serving silently
// different results.
type Manifest struct {
	// Seed, Scale and Classifier are the build configuration of the
	// service the bundle was written from (repro.New's WithSeed /
	// WithScale / WithClassifier values).
	Seed       int64
	Scale      string
	Classifier string
	// SearchShards is the shard count baked into the index stream; results
	// are identical at any count, but the manifest records it so a loader
	// pinned to a specific count can refuse.
	SearchShards int
	// Docs and Locations are the component sizes, for inspection and
	// cheap post-load sanity checks.
	Docs      int
	Locations int
	// CreatedAtUnix and BuildMillis are build metadata: when the bundle
	// was written and how long the from-scratch build that produced it
	// took.
	CreatedAtUnix int64
	BuildMillis   int64
	// Tool identifies the writer (e.g. "cmd/snapshot").
	Tool string
}

// SectionInfo is one entry of the section table.
type SectionInfo struct {
	// Name is the section's canonical name.
	Name string
	// Length is the payload byte count.
	Length int64
	// CRC is the payload's IEEE CRC-32.
	CRC uint32
}

// Bundle is the in-memory form of a TSNP snapshot: the manifest plus every
// serving component, decoded and ready to assemble into a service.
type Bundle struct {
	Manifest  Manifest
	Index     *search.ShardedIndex
	Gazetteer *gazetteer.Frozen
	SVM       classify.Classifier
	Bayes     classify.Classifier
}

// WriteTo serialises the bundle as a TSNP v1 stream: each component is
// encoded, the header (manifest + checksummed section table) is emitted, then
// the payloads follow sequentially. It returns the byte count written.
func (b *Bundle) WriteTo(w io.Writer) (int64, error) {
	svm, err := classify.AppendClassifier(nil, b.SVM)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding %s section: %w", SectionSVM, err)
	}
	bayes, err := classify.AppendClassifier(nil, b.Bayes)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding %s section: %w", SectionBayes, err)
	}
	// Every payload is encoded first: the section table needs each length
	// and checksum before the first payload byte can be written.
	names := []string{SectionSearch, SectionGazetteer, SectionSVM, SectionBayes}
	payloads := [][]byte{b.Index.AppendTo(nil), b.Gazetteer.AppendTo(nil), svm, bayes}

	m := b.Manifest
	h := codec.AppendI64(nil, m.Seed)
	h = codec.AppendStr(h, m.Scale)
	h = codec.AppendStr(h, m.Classifier)
	h = codec.AppendU32(h, uint32(m.SearchShards))
	h = codec.AppendU32(h, uint32(m.Docs))
	h = codec.AppendU32(h, uint32(m.Locations))
	h = codec.AppendI64(h, m.CreatedAtUnix)
	h = codec.AppendI64(h, m.BuildMillis)
	h = codec.AppendStr(h, m.Tool)
	h = codec.AppendU32(h, uint32(len(payloads)))
	for i, p := range payloads {
		h = codec.AppendStr(h, names[i])
		h = codec.AppendI64(h, int64(len(p)))
		h = codec.AppendU32(h, crc32.ChecksumIEEE(p))
	}

	frame := codec.AppendHeader(nil, Magic, Version)
	frame = codec.AppendU32(frame, uint32(len(h)))
	frame = append(frame, h...)
	frame = codec.AppendU32(frame, crc32.ChecksumIEEE(h))

	var n int64
	for _, p := range append([][]byte{frame}, payloads...) {
		wn, err := w.Write(p)
		n += int64(wn)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// WriteFile writes the bundle to path atomically: a same-directory temp file
// renamed into place, so a crashed build never leaves a half-written bundle
// under the serving path.
func (b *Bundle) WriteFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tsnp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := b.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// readHeader reads and verifies magic, version and the checksummed header,
// returning the parsed manifest and section table.
func readHeader(br *bufio.Reader) (Manifest, []SectionInfo, error) {
	var m Manifest
	var frame [12]byte // magic, version, headerLen
	if _, err := io.ReadFull(br, frame[:4]); err != nil {
		return m, nil, &FormatError{Reason: "reading magic", Err: err}
	}
	if string(frame[:4]) != Magic {
		return m, nil, &FormatError{Reason: fmt.Sprintf("bad magic %q", frame[:4])}
	}
	if _, err := io.ReadFull(br, frame[4:]); err != nil {
		return m, nil, &FormatError{Reason: "reading header frame", Err: err}
	}
	if version := binary.LittleEndian.Uint32(frame[4:]); version != Version {
		return m, nil, &FormatError{Reason: fmt.Sprintf("unsupported bundle version %d", version)}
	}
	headerLen := binary.LittleEndian.Uint32(frame[8:])
	if headerLen > maxHeaderLen {
		return m, nil, &FormatError{Reason: fmt.Sprintf("header of %d bytes exceeds the %d limit", headerLen, maxHeaderLen)}
	}
	header := make([]byte, headerLen+4) // the header, then its CRC
	if _, err := io.ReadFull(br, header); err != nil {
		return m, nil, &FormatError{Reason: "reading header", Err: err}
	}
	header, want := header[:headerLen], binary.LittleEndian.Uint32(header[headerLen:])
	if got := crc32.ChecksumIEEE(header); got != want {
		return m, nil, &ChecksumError{Region: "header", Want: want, Got: got}
	}

	hr := codec.NewReader("header", header)
	m.Seed = hr.I64()
	m.Scale = hr.Str()
	m.Classifier = hr.Str()
	m.SearchShards = int(hr.U32())
	m.Docs = int(hr.U32())
	m.Locations = int(hr.U32())
	m.CreatedAtUnix = hr.I64()
	m.BuildMillis = hr.I64()
	m.Tool = hr.Str()
	// A table entry is at least its name length, payload length and CRC.
	count := hr.Count("section", 4+8+4)
	if count > maxSections {
		return m, nil, &FormatError{Reason: fmt.Sprintf("section table of %d entries exceeds the %d limit", count, maxSections)}
	}
	infos := make([]SectionInfo, count)
	for i := range infos {
		infos[i] = SectionInfo{Name: hr.Str(), Length: hr.I64(), CRC: hr.U32()}
		if infos[i].Length < 0 || infos[i].Length > maxSectionLen {
			return m, nil, &FormatError{Reason: fmt.Sprintf("section %q length %d out of bounds", infos[i].Name, infos[i].Length)}
		}
	}
	if err := hr.Done(); err != nil {
		return m, nil, &FormatError{Reason: err.Error()}
	}
	return m, infos, nil
}

// Inspect reads only the manifest and section table — the cheap metadata
// view behind `snapshot inspect`. Payload checksums are NOT verified; use
// Read (or `snapshot verify`) for that.
func Inspect(r io.Reader) (Manifest, []SectionInfo, error) {
	return readHeader(bufio.NewReader(r))
}

// readSection streams one payload into memory, growing with the bytes that
// actually arrive (a corrupt length cannot force a huge allocation), and
// verifies its checksum before handing the bytes to a component parser.
func readSection(br *bufio.Reader, info SectionInfo) ([]byte, error) {
	var buf bytes.Buffer
	// Pre-size to skip growth copies on big sections, clamped so a crafted
	// header claiming an absurd length cannot allocate ahead of the data
	// actually present (the copy below fails at real EOF either way).
	buf.Grow(int(min(info.Length, 64<<20)))
	if n, err := io.CopyN(&buf, br, info.Length); err != nil {
		return nil, &FormatError{Reason: fmt.Sprintf("section %q truncated at %d of %d bytes", info.Name, n, info.Length), Err: err}
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != info.CRC {
		return nil, &ChecksumError{Region: info.Name, Want: info.CRC, Got: got}
	}
	return buf.Bytes(), nil
}

// Read loads a complete bundle: header, then every section sequentially,
// each checksum-verified before its component parser runs. Unknown section
// names are rejected (v1 defines exactly the four canonical sections), as is
// a bundle missing any of them.
func Read(r io.Reader) (*Bundle, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	m, infos, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Manifest: m}
	seen := map[string]bool{}
	for _, info := range infos {
		if seen[info.Name] {
			return nil, &FormatError{Reason: fmt.Sprintf("duplicate section %q", info.Name)}
		}
		seen[info.Name] = true
		payload, err := readSection(br, info)
		if err != nil {
			return nil, err
		}
		switch info.Name {
		case SectionSearch:
			if b.Index, err = search.ReadShardedIndex(payload); err != nil {
				return nil, &FormatError{Reason: "search section", Err: err}
			}
		case SectionGazetteer:
			if b.Gazetteer, err = gazetteer.ReadFrozen(payload); err != nil {
				return nil, &FormatError{Reason: "gazetteer section", Err: err}
			}
		case SectionSVM:
			if b.SVM, err = classify.ReadClassifier(payload); err != nil {
				return nil, &FormatError{Reason: "svm section", Err: err}
			}
		case SectionBayes:
			if b.Bayes, err = classify.ReadClassifier(payload); err != nil {
				return nil, &FormatError{Reason: "bayes section", Err: err}
			}
		default:
			return nil, &FormatError{Reason: fmt.Sprintf("unknown section %q", info.Name)}
		}
	}
	for _, name := range []string{SectionSearch, SectionGazetteer, SectionSVM, SectionBayes} {
		if !seen[name] {
			return nil, &FormatError{Reason: fmt.Sprintf("bundle is missing the %q section", name)}
		}
	}
	if got := b.Index.Len(); got != m.Docs {
		return nil, &FormatError{Reason: fmt.Sprintf("manifest says %d docs, index has %d", m.Docs, got)}
	}
	if got := b.Gazetteer.Len(); got != m.Locations {
		return nil, &FormatError{Reason: fmt.Sprintf("manifest says %d locations, gazetteer has %d", m.Locations, got)}
	}
	return b, nil
}

// ReadFile loads the bundle at path.
func ReadFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
