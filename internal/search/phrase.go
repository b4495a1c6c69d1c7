package search

import "strings"

// Phrase-query support for ShardedIndex.SearchPhrase: splitting a query into
// its quoted segments, and verifying a phrase against one shard's positional
// postings.

// splitPhrases extracts the quoted segments of a query and returns them
// together with the unquoted remainder. A dangling unbalanced quote is
// dropped (it would otherwise leak a '"' into the remainder); the text after
// it ranks as plain terms.
func splitPhrases(query string) (phrases []string, remainder string) {
	var rest []string
	for {
		start := strings.IndexByte(query, '"')
		if start < 0 {
			rest = append(rest, query)
			break
		}
		end := strings.IndexByte(query[start+1:], '"')
		if end < 0 {
			// Replace the quote with a space rather than deleting it:
			// the quote separated tokens (`museum"gallery` is two
			// words), and plain concatenation would merge them.
			rest = append(rest, query[:start]+" "+query[start+1:])
			break
		}
		rest = append(rest, query[:start])
		phrase := strings.TrimSpace(query[start+1 : start+1+end])
		if phrase != "" {
			phrases = append(phrases, phrase)
		}
		query = query[start+end+2:]
	}
	return phrases, strings.TrimSpace(strings.Join(rest, " "))
}

// containsPhrase reports whether the document body contains the phrase's
// stemmed tokens adjacently, in order. Adjacency is defined over the body's
// content words (words whose normalization yields exactly one stem —
// stopwords inside the phrase are not supported; the name phrases this is
// used for contain none) and verified against the positional postings: the
// phrase occurs iff some position p has want[j] at p+j for every j.
func (ix *Index) containsPhrase(doc int, want []string) bool {
	if len(want) == 0 {
		return true
	}
	lists := make([][]int32, len(want))
	for j, w := range want {
		lists[j] = ix.positionsIn(w, doc)
		if len(lists[j]) == 0 {
			return false
		}
	}
	for _, p := range lists[0] {
		ok := true
		for j := 1; j < len(want); j++ {
			if !containsPos(lists[j], p+int32(j)) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// containsPos reports whether sorted position list l contains v.
func containsPos(l []int32, v int32) bool {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(l) && l[lo] == v
}
