package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/gazetteer"
	"repro/internal/search"
)

// tinyBundle builds a small deterministic bundle — a few indexed docs, the
// scale-1 synthetic gazetteer and two classifiers trained on a toy corpus —
// shared by every test and the fuzz seed corpus.
var tinyBundle = sync.OnceValue(func() *Bundle {
	sb := search.NewBuilder(2)
	for _, d := range []search.Document{
		{URL: "http://example.test/a", Title: "Museum of Modern Art", Body: "The museum exhibits modern art in the city centre.", Lang: "en"},
		{URL: "http://example.test/b", Title: "Chez Testeur", Body: "A restaurant serving dinner; the chef changes the menu daily.", Lang: "en"},
		{URL: "http://example.test/c", Title: "Oakton High School", Body: "A school campus with students and a library.", Lang: "en"},
		{URL: "http://example.test/d", Title: "Hotel du Lac", Body: "Hotel rooms with a lobby and a view of the lake.", Lang: "en"},
		{URL: "http://example.test/e", Title: "Stadtmuseum", Body: "Ein Museum in der Stadt.", Lang: "de"},
	} {
		sb.Add(d)
	}
	six := sb.Freeze()

	var d classify.Dataset
	for i := 0; i < 8; i++ {
		d.Add("museum art exhibit gallery", "museum")
		d.Add("restaurant menu chef dinner", "restaurant")
	}

	return &Bundle{
		Manifest: Manifest{
			Seed:          42,
			Scale:         "small",
			Classifier:    "svm",
			SearchShards:  2,
			Docs:          six.Len(),
			Locations:     gazetteer.Synthetic(42).Freeze().Len(),
			CreatedAtUnix: 1754006400,
			BuildMillis:   1234,
			Tool:          "snapshot_test",
		},
		Index:     six,
		Gazetteer: gazetteer.Synthetic(42).Freeze(),
		SVM:       classify.LinearSVMTrainer{Epochs: 2, Seed: 9}.Train(d),
		Bayes:     classify.BayesTrainer{}.Train(d),
	}
})

// tinyBundleBytes serialises the shared bundle once.
var tinyBundleBytes = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	if _, err := tinyBundle().WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// TestTSNPHeaderBytesLocked pins the bundle framing: the sha256 of the tiny
// bundle's magic, version, header length, header (fixed manifest + section
// table, so every component stream's length and CRC) and header CRC. The
// sha256 was recorded when the search section became TIDX v5; the gazetteer,
// SVM and bayes entries of the section table are the ones the frame held
// before (commit 2fd69de onwards), so that move changed the search entry only.
func TestTSNPHeaderBytesLocked(t *testing.T) {
	data := tinyBundleBytes()
	frame := 12 + int(binary.LittleEndian.Uint32(data[8:])) + 4
	sum := sha256.Sum256(data[:frame])
	const want = "ec21a47d1d3dd2841dde4ed943506978a931564329043bb7522745ba3af63f04"
	if got := hex.EncodeToString(sum[:]); frame != 176 || got != want {
		t.Errorf("%d-byte frame, sha256 %s; recorded 176 bytes, %s", frame, got, want)
	}
	_, infos, err := Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wantInfos := []SectionInfo{
		{SectionSearch, 511, 1063736062},
		{SectionGazetteer, 5116, 2793490760},
		{SectionSVM, 347, 2360527285},
		{SectionBayes, 241, 980533605},
	}
	if !reflect.DeepEqual(infos, wantInfos) {
		t.Errorf("section table %+v, recorded %+v", infos, wantInfos)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	want := tinyBundle()
	data := tinyBundleBytes()

	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest != want.Manifest {
		t.Errorf("manifest round-trip:\n got %+v\nwant %+v", got.Manifest, want.Manifest)
	}
	if got.Index.Len() != want.Index.Len() || got.Index.NumShards() != want.Index.NumShards() {
		t.Errorf("index round-trip: %d docs / %d shards, want %d / %d",
			got.Index.Len(), got.Index.NumShards(), want.Index.Len(), want.Index.NumShards())
	}
	for _, q := range []string{"museum", "restaurant dinner", "school campus", "hotel"} {
		g, w := got.Index.Search(q, 5), want.Index.Search(q, 5)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("Search(%q) diverged after round-trip:\n got %+v\nwant %+v", q, g, w)
		}
	}
	if got.Gazetteer.Len() != want.Gazetteer.Len() {
		t.Errorf("gazetteer round-trip: %d locations, want %d", got.Gazetteer.Len(), want.Gazetteer.Len())
	}
	for _, addr := range []string{"Paris", "Oakton", "Main Street, Springfield"} {
		if g, w := got.Gazetteer.Geocode(addr), want.Gazetteer.Geocode(addr); !reflect.DeepEqual(g, w) {
			t.Errorf("Geocode(%q) diverged after round-trip: %v vs %v", addr, g, w)
		}
	}

	// Re-serialising the reloaded bundle reproduces the stream exactly:
	// every component encoder is deterministic.
	var again bytes.Buffer
	if _, err := got.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again.Bytes()) {
		t.Error("re-serialised bundle is not byte-identical to the original stream")
	}
}

func TestInspect(t *testing.T) {
	m, infos, err := Inspect(bytes.NewReader(tinyBundleBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m != tinyBundle().Manifest {
		t.Errorf("Inspect manifest = %+v, want %+v", m, tinyBundle().Manifest)
	}
	wantOrder := []string{SectionSearch, SectionGazetteer, SectionSVM, SectionBayes}
	if len(infos) != len(wantOrder) {
		t.Fatalf("Inspect returned %d sections, want %d", len(infos), len(wantOrder))
	}
	var total int64
	for i, info := range infos {
		if info.Name != wantOrder[i] {
			t.Errorf("section %d = %q, want %q", i, info.Name, wantOrder[i])
		}
		if info.Length <= 0 {
			t.Errorf("section %q has length %d", info.Name, info.Length)
		}
		total += info.Length
	}
	if total >= int64(len(tinyBundleBytes())) {
		t.Errorf("section payloads (%d bytes) exceed the file (%d bytes)", total, len(tinyBundleBytes()))
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "world.tsnp")
	if err := tinyBundle().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest != tinyBundle().Manifest {
		t.Error("WriteFile/ReadFile manifest mismatch")
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after WriteFile, want only the bundle", len(entries))
	}

	// A destination whose directory does not exist fails before any write.
	if err := tinyBundle().WriteFile(filepath.Join(dir, "absent", "world.tsnp")); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}

// failAfter is an io.Writer that accepts n bytes then fails, driving the
// write-error returns in the bundle writer.
type failAfter struct {
	n int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("failAfter: write refused")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteToPropagatesErrors sweeps the write-failure point across the
// bundle: every short write must surface an error, never a silent success.
func TestWriteToPropagatesErrors(t *testing.T) {
	size := len(tinyBundleBytes())
	step := size/97 + 1
	for cut := 0; cut < size; cut += step {
		if _, err := tinyBundle().WriteTo(&failAfter{n: cut}); err == nil {
			t.Fatalf("write failure at byte %d reported success", cut)
		}
	}
}

// TestErrorStrings pins the two typed errors' rendering and unwrapping —
// operators grep logs for these.
func TestErrorStrings(t *testing.T) {
	cause := errors.New("boom")
	fe := &FormatError{Reason: "bad magic", Err: cause}
	if got := fe.Error(); got != "snapshot: bad magic: boom" {
		t.Errorf("FormatError with cause = %q", got)
	}
	if !errors.Is(fe, cause) {
		t.Error("FormatError does not unwrap to its cause")
	}
	if got := (&FormatError{Reason: "truncated"}).Error(); got != "snapshot: truncated" {
		t.Errorf("FormatError without cause = %q", got)
	}
	ce := &ChecksumError{Region: "search", Want: 0xdeadbeef, Got: 0x01020304}
	if got := ce.Error(); got != "snapshot: search checksum mismatch: stored deadbeef, computed 01020304" {
		t.Errorf("ChecksumError = %q", got)
	}
}

// TestReadTruncated: every prefix of the bundle must fail with a typed
// error, never panic and never succeed. The header region is swept byte by
// byte; the payload region at a stride.
func TestReadTruncated(t *testing.T) {
	data := tinyBundleBytes()
	cuts := []int{}
	for i := 0; i < 512 && i < len(data); i++ {
		cuts = append(cuts, i)
	}
	for i := 512; i < len(data); i += 997 {
		cuts = append(cuts, i)
	}
	cuts = append(cuts, len(data)-1)
	for _, cut := range cuts {
		_, err := Read(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes read successfully", cut, len(data))
		}
		var fe *FormatError
		var ce *ChecksumError
		if !errors.As(err, &fe) && !errors.As(err, &ce) {
			t.Fatalf("truncation at %d: error %v is neither *FormatError nor *ChecksumError", cut, err)
		}
	}
}

// TestReadBitFlips: flipping any single byte of the bundle is detected —
// header flips by the header CRC (or the magic/version checks), payload
// flips by the section CRCs. The header region is swept densely, the
// payloads at a stride.
func TestReadBitFlips(t *testing.T) {
	data := tinyBundleBytes()
	offsets := []int{}
	for i := 0; i < 384 && i < len(data); i++ {
		offsets = append(offsets, i)
	}
	for i := 384; i < len(data); i += 499 {
		offsets = append(offsets, i)
	}
	offsets = append(offsets, len(data)-1)
	mutated := make([]byte, len(data))
	for _, off := range offsets {
		copy(mutated, data)
		mutated[off] ^= 0x5A
		_, err := Read(bytes.NewReader(mutated))
		if err == nil {
			t.Fatalf("bit flip at offset %d/%d read successfully", off, len(data))
		}
		var fe *FormatError
		var ce *ChecksumError
		if !errors.As(err, &fe) && !errors.As(err, &ce) {
			t.Fatalf("bit flip at %d: error %v is neither *FormatError nor *ChecksumError", off, err)
		}
	}
}

// TestReadShortSection: a section table that claims more bytes than the file
// holds fails as a truncation, and one that claims fewer fails the checksum
// of a later region — never a panic, never a silent success.
func TestReadShortSection(t *testing.T) {
	data := tinyBundleBytes()
	// Reconstruct the header layout: magic(4) + version(4) + headerLen(4).
	headerLen := int(uint32(data[8]) | uint32(data[9])<<8 | uint32(data[10])<<16 | uint32(data[11])<<24)
	header := append([]byte(nil), data[12:12+headerLen]...)

	// The first section entry's length field sits at a fixed position we
	// can find by re-parsing with Inspect; mutate it through the public
	// surface instead of hard-coding offsets: grow the claimed length of
	// the first section by 1 and fix the header CRC so only the length lies.
	m, infos, err := Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	// Find the 8-byte little-endian encoding of the first section length
	// inside the header and bump it.
	target := infos[0].Length
	var enc [8]byte
	for i := 0; i < 8; i++ {
		enc[i] = byte(uint64(target) >> (8 * i))
	}
	idx := bytes.LastIndex(header, enc[:])
	if idx < 0 {
		t.Fatalf("could not locate section length %d in header", target)
	}
	for _, delta := range []int64{1, -1} {
		h := append([]byte(nil), header...)
		lied := uint64(target + delta)
		for i := 0; i < 8; i++ {
			h[idx+i] = byte(lied >> (8 * i))
		}
		// Rebuild the file with a correct CRC over the lying header.
		out := append([]byte(nil), data[:12]...)
		out = append(out, h...)
		crc := crcIEEE(h)
		out = append(out, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
		out = append(out, data[12+headerLen+4:]...)

		if _, err := Read(bytes.NewReader(out)); err == nil {
			t.Errorf("section length off by %+d read successfully", delta)
		}
	}
}

func crcIEEE(b []byte) uint32 {
	// Tiny local mirror of crc32.ChecksumIEEE to keep the test honest about
	// what it fixes up.
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, x := range b {
		crc ^= uint32(x)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// TestReadRejectsStructuralLies: unknown, duplicate and missing sections are
// typed format errors.
func TestReadRejectsStructuralLies(t *testing.T) {
	b := tinyBundle()
	// A bundle whose manifest lies about the component sizes.
	lying := *b
	lying.Manifest.Docs++
	var buf bytes.Buffer
	if _, err := lying.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Read(bytes.NewReader(buf.Bytes()))
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Errorf("manifest doc-count lie: got %v, want *FormatError", err)
	}

	lying = *b
	lying.Manifest.Locations--
	buf.Reset()
	if _, err := lying.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.As(err, &fe) {
		t.Errorf("manifest location-count lie: got %v, want *FormatError", err)
	}
}
