package search

import (
	"slices"

	"repro/internal/textproc"
)

// Term-id column. A snippet is a window of a document's raw words, and the
// classifier wants that window's normalised tokens. The index already knows
// them: the positional CSR records, per term, the content positions it
// occupies in each document — the per-document token table, transposed. The
// column transposes it back once, after the index is compiled or loaded, so a
// hit can hand out its tokens as a slice of vocabulary ids instead of a string
// to be tokenised, stop-worded and stemmed again.
//
// The column is derived state, like the BM25 contributions and the dense
// sidecars: Freeze derives it in finish, and the ids are index-wide (the shard
// dictionaries merged and sorted), so a hit's Terms are the same numbers at
// every shard count and after a write → read round trip.

// noToken marks a raw word that normalises to nothing (a stop-word, a number,
// bare punctuation). Consumers of Result.Terms skip it.
const noToken = -1

// termColumn is one shard's per-raw-word token table: ids[base[doc]+i]
// describes word i of doc's body — a vocabulary id when the word normalises to
// one token (a content word), noToken when to none, and -(m+2) otherwise: the
// word's tokens are then multiIDs[multiOff[m]:multiOff[m+1]] (hyphenated and
// slash-joined words: rare, hence the side list rather than a second arena).
type termColumn struct {
	base     []int
	ids      []int32
	multiOff []int32
	multiIDs []int32
}

// window returns the normalised tokens of doc's raw words [start, end) as
// vocabulary ids, noToken entries included; nil for an empty window. Unless a
// multi-token word falls inside it the result is a capacity-clipped slice of
// the column itself.
func (tc *termColumn) window(doc, start, end int) []int32 {
	if start == end {
		return nil
	}
	hi := tc.base[doc] + end
	w := tc.ids[tc.base[doc]+start : hi : hi]
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

// deriveTerms fills ix.terms. Content words — the words the positional CSR
// addresses through contentToRaw, each claimed by exactly one term — are
// scattered from posArena. The remaining words, dropped or split by
// normalisation, are normalised again, once per distinct form; every token
// they yield is a term of the vocabulary (a body token always has a posting).
func (ix *Index) deriveTerms(vocab []string) {
	c := ix.col
	// Both dictionaries are sorted and vocab contains c.terms: one merge walk
	// maps shard-local term ids to vocabulary ids.
	global := make([]int32, len(c.terms))
	g := 0
	for t, term := range c.terms {
		for vocab[g] != term {
			g++
		}
		global[t] = int32(g)
	}

	tc := termColumn{base: make([]int, len(ix.docs)+1), multiOff: []int32{0}}
	for d, off := range ix.wordOff {
		tc.base[d+1] = tc.base[d] + len(off)
	}
	tc.ids = make([]int32, tc.base[len(ix.docs)])
	for t := range c.terms {
		for l := c.posOff[t]; l < c.posOff[t+1]; l++ {
			doc := c.posDoc[l]
			c2r := ix.contentToRaw[doc]
			for _, p := range c.posArena[c.posStart[l]:c.posStart[l+1]] {
				tc.ids[tc.base[doc]+int(c2r[p])] = global[t]
			}
		}
	}

	// forms memoises what a non-content word form stores in the column, so
	// each distinct form is normalised once per shard.
	forms := map[string]int32{}
	for d, off := range ix.wordOff {
		c2r := ix.contentToRaw[d]
		joined := ix.bodyJoined[d]
		p := 0
		for raw := range off {
			if p < len(c2r) && int(c2r[p]) == raw {
				p++
				continue
			}
			end := len(joined)
			if raw+1 < len(off) {
				end = int(off[raw+1]) - 1 // the space before the next word
			}
			form := joined[off[raw]:end]
			id, ok := forms[form]
			if !ok {
				toks := textproc.NormalizeTokens(form)
				id = noToken
				if len(toks) > 0 {
					for _, tok := range toks {
						v, _ := slices.BinarySearch(vocab, tok)
						tc.multiIDs = append(tc.multiIDs, int32(v))
					}
					id = -int32(len(tc.multiOff)-1) - 2
					tc.multiOff = append(tc.multiOff, int32(len(tc.multiIDs)))
				}
				forms[form] = id
			}
			tc.ids[tc.base[d]+raw] = id
		}
	}
	ix.terms = tc
}
