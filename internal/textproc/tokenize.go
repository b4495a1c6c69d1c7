// Package textproc provides the text-processing primitives used throughout the
// reproduction: tokenization, stopword removal, Porter stemming and the
// normalized-term-frequency feature extraction described in §5.2.1 of
// Quercini & Reynaud (EDBT 2013).
package textproc

import (
	"strings"
	"unicode"
)

// Tokenize lower-cases s and splits it into word tokens. A token is a maximal
// run of letters or digits; apostrophes inside a word are dropped together
// with the suffix they introduce ("museum's" -> "museum"), matching the
// behaviour of the snippet pipeline in the paper, which tokenizes against the
// English dictionary.
func Tokenize(s string) []string {
	return appendTokens(make([]string, 0, len(s)/5+1), s)
}

// appendTokens is Tokenize's allocation-free core: it appends the tokens of s
// to dst. Because whitespace always separates tokens, tokenizing a text word
// by word yields exactly the tokens of tokenizing it whole — the indexer's
// per-word pipeline relies on that equivalence (and a fuzz test enforces it).
func appendTokens(dst []string, s string) []string {
	s = strings.ToLower(s)
	tokens := dst
	start := -1
	flush := func(end int) {
		if start >= 0 {
			tok := s[start:end]
			tok = strings.TrimLeft(tok, "'")
			if i := strings.IndexByte(tok, '\''); i >= 0 {
				tok = tok[:i]
			}
			if tok != "" {
				tokens = append(tokens, tok)
			}
			start = -1
		}
	}
	for i, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'':
			if start < 0 {
				start = i
			}
		default:
			flush(i)
		}
	}
	flush(len(s))
	return tokens
}

// IsNumericToken reports whether tok consists solely of digits and common
// numeric punctuation; such tokens carry no lexical signal for the classifier
// and are discarded during feature extraction.
func IsNumericToken(tok string) bool {
	if tok == "" {
		return false
	}
	digits := 0
	for _, r := range tok {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '.' || r == ',' || r == '-':
		default:
			return false
		}
	}
	return digits > 0
}

// NormalizeTokens applies the full paper pipeline to raw text: tokenize,
// drop stopwords and purely numeric tokens, and stem the remainder with the
// Porter algorithm.
func NormalizeTokens(s string) []string {
	return appendNormalized(make([]string, 0, len(s)/5+1), s)
}

// appendNormalized is NormalizeTokens's allocation-free core: it appends the
// normalized tokens of s to dst, reusing dst's capacity for the raw token
// pass too (normalization only ever shrinks the token list, so the filtered
// tokens overwrite the raw ones in place).
func appendNormalized(dst []string, s string) []string {
	raw := appendTokens(dst, s)
	out := raw[:len(dst)]
	for _, tok := range raw[len(dst):] {
		if IsStopword(tok) || IsNumericToken(tok) {
			continue
		}
		out = append(out, Stem(tok))
	}
	return out
}

// NormalizeWords applies the NormalizeTokens pipeline to a pre-split word
// sequence in one pass. It returns the concatenated normalized tokens —
// identical to NormalizeTokens(strings.Join(words, " ")) — plus, per input
// word, its single normalized stem when the word yields exactly one content
// token and "" otherwise (the per-word view the indexer's positional
// structures are built from). One scratch buffer is reused across words, so
// indexing a document costs two allocations instead of two per word.
func NormalizeWords(words []string) (tokens []string, stems []string) {
	tokens = make([]string, 0, len(words))
	stems = make([]string, len(words))
	var scratch [8]string
	for i, w := range words {
		raw := appendTokens(scratch[:0], w)
		n := 0
		for _, tok := range raw {
			if IsStopword(tok) || IsNumericToken(tok) {
				continue
			}
			tokens = append(tokens, Stem(tok))
			n++
		}
		if n == 1 {
			stems[i] = tokens[len(tokens)-1]
		}
	}
	return tokens, stems
}
