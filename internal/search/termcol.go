package search

// Term-id column. A snippet is a window of a document's raw words, and the
// classifier wants that window's normalised tokens. A build tokenises
// every body word anyway, so it records them, per raw word in document order:
// the shard's one per-word table. A hit hands out its tokens as a slice of
// vocabulary ids instead of a string to be tokenised, stop-worded and stemmed
// again, and its snippet anchors on the same column: the first word whose id
// is a query term's.
//
// The ids are index-wide (the shard dictionaries merged and sorted), so a
// hit's Terms are the same numbers at every shard count and after a write →
// read round trip. A producer lays the column out in them (flatten).

// noToken marks a raw word that normalises to nothing (a stop-word, a number,
// bare punctuation). Consumers of Result.Terms skip it.
const noToken = -1

// termColumn is one shard's per-raw-word token table, indexed by
// docTable.base: ids[base[doc]+i] describes word i of doc's body — a
// vocabulary id when the word normalises to one token (a content word),
// noToken when to none, and -(m+2) otherwise: the word's tokens are then
// multiIDs[multiOff[m]:multiOff[m+1]] (hyphenated and slash-joined words:
// rare, hence the side list rather than a second arena; one entry per distinct
// word form, in order of its first body occurrence).
type termColumn struct {
	ids      []int32
	multiOff []int32
	multiIDs []int32
}

// window returns the normalised tokens of the words ids[lo:hi] as vocabulary
// ids, noToken entries included; nil for an empty window. Unless a
// multi-token word falls inside it the result is a capacity-clipped slice of
// the column itself.
func (tc *termColumn) window(lo, hi int) []int32 {
	if lo == hi {
		return nil
	}
	w := tc.ids[lo:hi:hi]
	for _, id := range w {
		if id < noToken {
			return tc.expand(w)
		}
	}
	return w
}

// expand copies window w with every multi-token word replaced by its tokens.
func (tc *termColumn) expand(w []int32) []int32 {
	out := make([]int32, 0, len(w)+4)
	for _, id := range w {
		if id >= noToken {
			out = append(out, id)
			continue
		}
		m := -int(id) - 2
		out = append(out, tc.multiIDs[tc.multiOff[m]:tc.multiOff[m+1]]...)
	}
	return out
}

// anchor returns the index, relative to lo, of the first word of ids[lo:hi]
// whose entry is one of want — the vocabulary ids of a query's terms, -1 for a
// term no document holds — or 0 when there is none. Only a content word can
// match: the entries of the other words are negative.
func (tc *termColumn) anchor(lo, hi int, want []int32) int {
	for i, id := range tc.ids[lo:hi] {
		if id < 0 {
			continue
		}
		for _, v := range want {
			if id == v {
				return i
			}
		}
	}
	return 0
}
