// Package annotate implements the paper's primary contribution (§5): the
// three-step algorithm that discovers and annotates entities of given types
// in a table — pre-processing that rules out cells that cannot name entities,
// web-search-plus-classification annotation with the majority rule of Eq. 1,
// optional spatial query disambiguation backed by the toponym voting graph,
// and the column-coherence post-processing of Eq. 2 that eliminates spurious
// annotations. The TIN/TIS baselines of §6.2 and a Limaye-style catalogue
// annotator (§6.3) live here too.
package annotate

import (
	"regexp"
	"strings"
	"unicode"

	"repro/internal/table"
)

// SkipReason explains why pre-processing ruled a cell out.
type SkipReason string

// The pre-processing rules of §5.1.
const (
	SkipNone       SkipReason = ""
	SkipEmpty      SkipReason = "empty"
	SkipPhone      SkipReason = "phone number"
	SkipURL        SkipReason = "url"
	SkipEmail      SkipReason = "email"
	SkipNumeric    SkipReason = "numeric value"
	SkipCoords     SkipReason = "geographic coordinates"
	SkipLong       SkipReason = "long value"
	SkipColumnType SkipReason = "column type"
)

var (
	urlRe   = regexp.MustCompile(`^(https?://|www\.)\S+$`)
	emailRe = regexp.MustCompile(`^[^@\s]+@[^@\s]+\.[^@\s]+$`)
	numRe   = regexp.MustCompile(`^-?[\d.,]+%?$`)
	coordRe = regexp.MustCompile(`^-?\d{1,3}(\.\d+)?[,; NSEW°]\s*-?\d{1,3}(\.\d+)?[NSEW°]?$`)
)

// maxCellWords is the length threshold above which a cell is treated as a
// verbose description rather than an entity name (§5.1 rules out "cells
// containing long values, such as verbose descriptions").
const maxCellWords = 8

// SkipColumn reports whether §5.1's GFT column-type filter rules out the whole
// column: Location, Date and Number cells cannot name entities of interest.
func SkipColumn(ct table.ColumnType) bool {
	return ct == table.Location || ct == table.Date || ct == table.Number
}

// CheckCell applies §5.1's syntactic filters to a cell's content, returning
// the reason it cannot contain an entity name, or SkipNone when the cell must
// be sent to the search engine.
func CheckCell(content string) SkipReason {
	return check(strings.TrimSpace(content))
}

// check is CheckCell on already-trimmed content. Each regexp runs only behind
// a necessary condition for it to match — its literal prefix, a byte it
// requires, or the class of its first byte — so the cascade's outcome is the
// unguarded one's while an ordinary entity name costs no regexp at all.
func check(c string) SkipReason {
	if c == "" {
		return SkipEmpty
	}
	b := c[0]
	signedDigit := b == '-' || ('0' <= b && b <= '9') // coordRe's first byte, and numRe's
	switch {
	case (strings.HasPrefix(c, "http") || strings.HasPrefix(c, "www.")) && urlRe.MatchString(c):
		return SkipURL
	case strings.IndexByte(c, '@') >= 0 && emailRe.MatchString(c):
		return SkipEmail
	case signedDigit && coordRe.MatchString(c):
		return SkipCoords
	case (signedDigit || b == '.' || b == ',') && numRe.MatchString(c):
		return SkipNumeric
	case isPhone(c):
		return SkipPhone
	case moreWordsThan(c, maxCellWords):
		return SkipLong
	}
	return SkipNone
}

// isPhone is the phone rule, ^\+?[\d() .-]{7,20}$ with at least one digit,
// written out as one pass: its matches are whole phone columns, cells no
// guard could spare a regexp.
func isPhone(c string) bool {
	c = strings.TrimPrefix(c, "+")
	if len(c) < 7 || len(c) > 20 {
		return false
	}
	digit := false
	for i := 0; i < len(c); i++ {
		switch b := c[i]; {
		case '0' <= b && b <= '9':
			digit = true
		case strings.IndexByte("() .-", b) < 0:
			return false
		}
	}
	return digit
}

// moreWordsThan reports len(strings.Fields(s)) > n without building the
// fields, stopping at word n+1.
func moreWordsThan(s string, n int) bool {
	words, inWord := 0, false
	for _, r := range s {
		if unicode.IsSpace(r) {
			inWord = false
		} else if !inWord {
			inWord = true
			if words++; words > n {
				return true
			}
		}
	}
	return false
}
