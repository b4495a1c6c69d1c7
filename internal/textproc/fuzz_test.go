package textproc

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzNormalizeTokens checks the full normalization pipeline on arbitrary
// text: no panics, every output token is a non-empty run of letters/digits,
// and — the invariant the search indexer builds on — normalizing a text word
// by word yields exactly the tokens of normalizing it whole (whitespace
// always separates tokens, so the two factorizations must agree).
func FuzzNormalizeTokens(f *testing.F) {
	for _, seed := range []string{
		"The Louvre museum's famous paintings",
		"rock-n-roll jazz-club 2,000 3.5 12",
		"l'atelier 'quoted' ''",
		"state-of-the-art museums in paris",
		"ALL CAPS And MiXeD",
		"tabs\tand\nnewlines\r\nhere",
		"héllo wörld çedilla İstanbul",
		"…punctuation—galore!? (parens) [brackets]",
		"",
		"'''",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tokens := NormalizeTokens(s)
		for _, tok := range tokens {
			if tok == "" {
				t.Fatalf("empty token from %q", s)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q from %q contains non-alphanumeric %q", tok, s, r)
				}
			}
		}

		var perWord []string
		for _, w := range strings.Fields(s) {
			perWord = append(perWord, NormalizeTokens(w)...)
		}
		if len(perWord) != len(tokens) {
			t.Fatalf("per-word normalization of %q yields %d tokens, whole-text %d\nper-word: %q\nwhole: %q",
				s, len(perWord), len(tokens), perWord, tokens)
		}
		for i := range tokens {
			if perWord[i] != tokens[i] {
				t.Fatalf("token %d of %q differs: per-word %q, whole %q", i, s, perWord[i], tokens[i])
			}
		}
	})
}

// FuzzTokenize checks the tokenizer alone: tokens are non-empty, lower-case
// (no rune changed by ToLower survives), and contain no apostrophes.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{"Museum's", "o'clock 'tis", "a-b'c-d", "12'34"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				t.Fatalf("empty token from %q", s)
			}
			if strings.ContainsRune(tok, '\'') {
				t.Fatalf("token %q from %q contains apostrophe", tok, s)
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q from %q not lower-cased", tok, s)
			}
		}
	})
}
