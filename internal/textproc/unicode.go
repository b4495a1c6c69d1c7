package textproc

import (
	"strings"
	"unicode/utf8"
)

// Unicode normalization for ingested cell text. Real-world tables arrive in
// a mix of precomposed (NFC) and decomposed (NFD) encodings — macOS file
// paths, copy-pasted PDF text and some HTML generators emit combining marks
// — and the tokenizer treats a combining mark as a non-letter, so "Musée" in
// NFD tokenizes as ["muse", "e"] while the NFC form yields ["musée"]. The
// ingestion layer therefore composes text to NFC before it reaches the
// pipeline (table.Normalize), and the gazetteer folds diacritics entirely
// when building name keys so "Cédar Lane" geocodes like "Cedar Lane".
//
// The tables below are not the full Unicode composition data: they cover the
// Latin-script letters with a single combining mark that occur in place and
// entity names (Latin-1 Supplement and the common Latin Extended-A forms).
// Unknown base+mark pairs are passed through untouched, which keeps both
// transforms idempotent.

// latinDecomp maps each supported precomposed rune to its base letter and
// combining mark. composeNFC and DecomposeNFD are both derived from it, so
// the two transforms are exact inverses on the supported set.
var latinDecomp = map[rune][2]rune{
	'À': {'A', 0x300}, 'Á': {'A', 0x301}, 'Â': {'A', 0x302}, 'Ã': {'A', 0x303}, 'Ä': {'A', 0x308}, 'Å': {'A', 0x30A},
	'à': {'a', 0x300}, 'á': {'a', 0x301}, 'â': {'a', 0x302}, 'ã': {'a', 0x303}, 'ä': {'a', 0x308}, 'å': {'a', 0x30A},
	'Ç': {'C', 0x327}, 'ç': {'c', 0x327},
	'È': {'E', 0x300}, 'É': {'E', 0x301}, 'Ê': {'E', 0x302}, 'Ë': {'E', 0x308},
	'è': {'e', 0x300}, 'é': {'e', 0x301}, 'ê': {'e', 0x302}, 'ë': {'e', 0x308},
	'Ì': {'I', 0x300}, 'Í': {'I', 0x301}, 'Î': {'I', 0x302}, 'Ï': {'I', 0x308},
	'ì': {'i', 0x300}, 'í': {'i', 0x301}, 'î': {'i', 0x302}, 'ï': {'i', 0x308},
	'Ñ': {'N', 0x303}, 'ñ': {'n', 0x303},
	'Ò': {'O', 0x300}, 'Ó': {'O', 0x301}, 'Ô': {'O', 0x302}, 'Õ': {'O', 0x303}, 'Ö': {'O', 0x308},
	'ò': {'o', 0x300}, 'ó': {'o', 0x301}, 'ô': {'o', 0x302}, 'õ': {'o', 0x303}, 'ö': {'o', 0x308},
	'Ù': {'U', 0x300}, 'Ú': {'U', 0x301}, 'Û': {'U', 0x302}, 'Ü': {'U', 0x308},
	'ù': {'u', 0x300}, 'ú': {'u', 0x301}, 'û': {'u', 0x302}, 'ü': {'u', 0x308},
	'Ý': {'Y', 0x301}, 'ý': {'y', 0x301}, 'ÿ': {'y', 0x308},
	'Ā': {'A', 0x304}, 'ā': {'a', 0x304}, 'Ă': {'A', 0x306}, 'ă': {'a', 0x306}, 'Ą': {'A', 0x328}, 'ą': {'a', 0x328},
	'Ć': {'C', 0x301}, 'ć': {'c', 0x301}, 'Č': {'C', 0x30C}, 'č': {'c', 0x30C},
	'Ē': {'E', 0x304}, 'ē': {'e', 0x304}, 'Ė': {'E', 0x307}, 'ė': {'e', 0x307}, 'Ę': {'E', 0x328}, 'ę': {'e', 0x328}, 'Ě': {'E', 0x30C}, 'ě': {'e', 0x30C},
	'Ğ': {'G', 0x306}, 'ğ': {'g', 0x306},
	'Ī': {'I', 0x304}, 'ī': {'i', 0x304}, 'İ': {'I', 0x307},
	'Ń': {'N', 0x301}, 'ń': {'n', 0x301}, 'Ň': {'N', 0x30C}, 'ň': {'n', 0x30C},
	'Ō': {'O', 0x304}, 'ō': {'o', 0x304}, 'Ő': {'O', 0x30B}, 'ő': {'o', 0x30B},
	'Ŕ': {'R', 0x301}, 'ŕ': {'r', 0x301}, 'Ř': {'R', 0x30C}, 'ř': {'r', 0x30C},
	'Ś': {'S', 0x301}, 'ś': {'s', 0x301}, 'Š': {'S', 0x30C}, 'š': {'s', 0x30C},
	'Ť': {'T', 0x30C}, 'ť': {'t', 0x30C},
	'Ū': {'U', 0x304}, 'ū': {'u', 0x304}, 'Ů': {'U', 0x30A}, 'ů': {'u', 0x30A}, 'Ű': {'U', 0x30B}, 'ű': {'u', 0x30B},
	'Ź': {'Z', 0x301}, 'ź': {'z', 0x301}, 'Ż': {'Z', 0x307}, 'ż': {'z', 0x307}, 'Ž': {'Z', 0x30C}, 'ž': {'z', 0x30C},
}

// latinCompose is the inverse of latinDecomp: (base, mark) → precomposed.
var latinCompose = func() map[[2]rune]rune {
	m := make(map[[2]rune]rune, len(latinDecomp))
	for c, d := range latinDecomp {
		m[d] = c
	}
	return m
}()

// extraFolds are diacritic folds with no single-mark decomposition.
var extraFolds = map[rune]string{
	'Ø': "O", 'ø': "o",
	'Æ': "AE", 'æ': "ae",
	'Œ': "OE", 'œ': "oe",
	'Đ': "D", 'đ': "d",
	'Ł': "L", 'ł': "l",
	'ß': "ss",
}

// isCombiningMark reports whether r is in the combining-diacritics block.
func isCombiningMark(r rune) bool { return r >= 0x300 && r <= 0x36F }

// ComposeNFC composes base-letter + combining-mark pairs into their
// precomposed (NFC) form for the supported Latin repertoire; anything else
// passes through unchanged. The transform is idempotent, and for supported
// text ComposeNFC(DecomposeNFD(s)) == s.
func ComposeNFC(s string) string {
	// Fast path: no combining marks, nothing to do.
	if !strings.ContainsFunc(s, isCombiningMark) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	prev := rune(-1)
	for _, r := range s {
		if prev >= 0 {
			if c, ok := latinCompose[[2]rune{prev, r}]; ok {
				prev = c
				continue
			}
			b.WriteRune(prev)
		}
		prev = r
	}
	if prev >= 0 {
		b.WriteRune(prev)
	}
	return b.String()
}

// DecomposeNFD decomposes the supported precomposed Latin letters into base
// letter + combining mark (NFD); anything else passes through unchanged.
// The scenario matrix's messy encoders use it to manufacture the decomposed
// inputs that ComposeNFC must undo.
func DecomposeNFD(s string) string {
	var b strings.Builder
	b.Grow(len(s) + len(s)/4)
	for _, r := range s {
		if d, ok := latinDecomp[r]; ok {
			b.WriteRune(d[0])
			b.WriteRune(d[1])
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// FoldDiacritics strips diacritics: precomposed letters map to their base
// letter, bare combining marks are dropped (so NFC and NFD spellings fold
// identically), and a handful of non-decomposable letters (ø, æ, ß, …) map
// to their ASCII conventions. Used by the gazetteer's name keys so accented
// spellings of a place name all geocode to the same locations.
func FoldDiacritics(s string) string {
	changed := strings.ContainsFunc(s, func(r rune) bool {
		if r < utf8.RuneSelf {
			return false // no ASCII rune folds; skip the two map probes
		}
		_, pre := latinDecomp[r]
		_, ex := extraFolds[r]
		return pre || ex || isCombiningMark(r)
	})
	if !changed {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case isCombiningMark(r):
		case extraFolds[r] != "":
			b.WriteString(extraFolds[r])
		default:
			if d, ok := latinDecomp[r]; ok {
				r = d[0]
			}
			b.WriteRune(r)
		}
	}
	return b.String()
}

// AppendNormASCII appends the key form of an all-ASCII s to dst — lower-cased,
// every whitespace run collapsed to one space, none leading or trailing:
// strings.Join(strings.Fields(strings.ToLower(s)), " ") — and reports true.
// At the first byte >= 0x80 it gives up and reports false (dst's new content
// is then meaningless): Unicode case mapping, spaces and diacritic folds are
// the caller's slow path. Cell and place-name keys are built through it into
// a stack buffer, so looking an ASCII key up allocates nothing.
func AppendNormASCII(dst []byte, s string) ([]byte, bool) {
	start := len(dst)
	pending := false // a whitespace run is waiting for the next word
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case b >= utf8.RuneSelf:
			return dst, false
		case b == ' ' || ('\t' <= b && b <= '\r'):
			pending = len(dst) > start
		default:
			if pending {
				dst = append(dst, ' ')
				pending = false
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			dst = append(dst, b)
		}
	}
	return dst, true
}
