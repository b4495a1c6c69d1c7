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
