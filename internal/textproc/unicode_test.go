package textproc

import (
	"strings"
	"testing"
)

// NFD spellings are written with explicit \u escapes so the source encoding
// can't silently change which normal form a literal is in.
const (
	nfdMusee    = "Musée"        // "Musée" as e + combining acute
	nfdHello    = "héllo wörld" // the tokenizer fuzz-corpus seed, decomposed
	nfdCedilla  = "çedilla"
	nfdIstanbul = "İstanbul" // Turkish dotted capital I, decomposed
	nfdZurich   = "Zürich"
	nfcMusee    = "Musée"
)

// The NFC/NFD cases are promoted from the tokenizer fuzz corpus hints: the
// corpus seeds "héllo wörld çedilla İstanbul" through the tokenizer, and
// decomposed spellings of exactly those strings tokenize differently
// (combining marks are not letters), which is why ingestion composes first.
func TestComposeNFC(t *testing.T) {
	cases := []struct{ in, want string }{
		{nfdMusee, nfcMusee},
		{nfdHello, "héllo wörld"},
		{nfdCedilla, "çedilla"},
		{nfdIstanbul, "İstanbul"},
		{nfdZurich, "Zürich"},
		{"Å", "Å"},
		{"ñ", "ñ"},
		{"already composed: " + nfcMusee, "already composed: " + nfcMusee},
		{"plain ascii", "plain ascii"},
		{"", ""},
		// Unknown base+mark pairs pass through untouched.
		{"x́", "x́"},
		// A mark with no preceding base letter survives.
		{"́abc", "́abc"},
		// Consecutive marks: the first composes, the second has no
		// (precomposed, mark) entry and stays combining.
		{"é̈", "é̈"},
	}
	for _, c := range cases {
		if got := ComposeNFC(c.in); got != c.want {
			t.Errorf("ComposeNFC(%q) = %q, want %q", c.in, got, c.want)
		}
		// Idempotent.
		if got := ComposeNFC(ComposeNFC(c.in)); got != c.want {
			t.Errorf("ComposeNFC not idempotent on %q", c.in)
		}
	}
}

func TestDecomposeNFD(t *testing.T) {
	cases := []struct{ in, want string }{
		{nfcMusee, nfdMusee},
		{"İstanbul", nfdIstanbul},
		{"Zürich", nfdZurich},
		{"ñ", "ñ"},
		{"ascii", "ascii"},
		{"", ""},
		// Non-decomposable folds stay put (ø has no combining-mark form).
		{"øre", "øre"},
	}
	for _, c := range cases {
		if got := DecomposeNFD(c.in); got != c.want {
			t.Errorf("DecomposeNFD(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestComposeDecomposeInverse checks the two transforms are exact inverses
// over the whole supported repertoire.
func TestComposeDecomposeInverse(t *testing.T) {
	var all strings.Builder
	for pre := range latinDecomp {
		all.WriteRune(pre)
		all.WriteByte(' ')
	}
	s := all.String()
	if got := ComposeNFC(DecomposeNFD(s)); got != s {
		t.Errorf("ComposeNFC(DecomposeNFD(s)) != s over supported repertoire:\n%q\n%q", s, got)
	}
}

func TestFoldDiacritics(t *testing.T) {
	cases := []struct{ in, want string }{
		{nfcMusee, "Musee"},
		{nfdMusee, "Musee"}, // NFD folds identically
		{"Café Zürich", "Cafe Zurich"},
		{"İstanbul", "Istanbul"},
		{"Søren", "Soren"},
		{"Œuvre", "OEuvre"},
		{"straße", "strasse"},
		{"Łódź", "Lodz"},
		{"plain", "plain"},
		{"", ""},
	}
	for _, c := range cases {
		if got := FoldDiacritics(c.in); got != c.want {
			t.Errorf("FoldDiacritics(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestTokenizeNFCvsNFD documents the tokenizer behavior that motivates
// composing at ingestion: the NFC spelling tokenizes as one word, the NFD
// spelling splits at the combining mark. table.Normalize composes cell text
// so the pipeline only ever sees the left column.
func TestTokenizeNFCvsNFD(t *testing.T) {
	nfc := Tokenize(nfcMusee)
	if len(nfc) != 1 || nfc[0] != "musée" {
		t.Fatalf("Tokenize(NFC Musée) = %v", nfc)
	}
	nfd := Tokenize(nfdMusee)
	if len(nfd) == 1 {
		t.Fatalf("Tokenize(NFD Musée) unexpectedly stayed whole: %v (composing at ingestion may no longer be needed)", nfd)
	}
	composed := Tokenize(ComposeNFC(nfdMusee))
	if len(composed) != 1 || composed[0] != nfc[0] {
		t.Fatalf("Tokenize(ComposeNFC(NFD)) = %v, want %v", composed, nfc)
	}
}

// TestAppendNormASCII: the ASCII key pass equals its defining expression,
// appends after whatever dst already holds, and gives up on any other byte.
func TestAppendNormASCII(t *testing.T) {
	for _, s := range []string{"", " ", "Cedar Lane", "  CEDAR \t\r\n lane\v\f", "a", " a", "a ", "A  b   C", "\x00\x1c\x7f"} {
		want := strings.Join(strings.Fields(strings.ToLower(s)), " ")
		got, ok := AppendNormASCII([]byte("key "), s)
		if !ok || string(got) != "key "+want {
			t.Errorf("AppendNormASCII(%q) = %q, %v; want %q", s, got, ok, "key "+want)
		}
	}
	for _, s := range []string{nfcMusee, "caf\u00e9", "a\u00a0b", "\xff", "\u212a"} {
		if _, ok := AppendNormASCII(nil, s); ok {
			t.Errorf("AppendNormASCII(%q) claims an ASCII key", s)
		}
	}
}
