// Package rdf implements the application substrate the paper's algorithm was
// built for (§1): an RDF repository of points of interest extracted from
// annotated tables. It provides an in-memory triple store with S/P/O indexes,
// wildcard pattern queries, facet counting, and the table→triples extraction
// step.
package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// Triple is one RDF statement. Subjects and predicates are compact URIs
// ("poi:42", "rdf:type"); objects are URIs or literals.
type Triple struct {
	S, P, O string
}

// String renders the triple in a Turtle-like form.
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %q .", t.S, t.P, t.O)
}

// Store is an in-memory triple store with hash indexes on each component.
type Store struct {
	triples []Triple
	seen    map[Triple]struct{}
	byS     map[string][]int
	byP     map[string][]int
	byO     map[string][]int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		seen: map[Triple]struct{}{},
		byS:  map[string][]int{},
		byP:  map[string][]int{},
		byO:  map[string][]int{},
	}
}

// Add inserts a triple; duplicates are ignored (RDF set semantics).
func (s *Store) Add(t Triple) {
	if _, dup := s.seen[t]; dup {
		return
	}
	s.seen[t] = struct{}{}
	id := len(s.triples)
	s.triples = append(s.triples, t)
	s.byS[t.S] = append(s.byS[t.S], id)
	s.byP[t.P] = append(s.byP[t.P], id)
	s.byO[t.O] = append(s.byO[t.O], id)
}

// Len returns the number of distinct triples.
func (s *Store) Len() int { return len(s.triples) }

// Query returns every triple matching the pattern; empty strings are
// wildcards. The most selective bound component drives the scan.
func (s *Store) Query(subj, pred, obj string) []Triple {
	candidates := s.candidateList(subj, pred, obj)
	var out []Triple
	for _, id := range candidates {
		t := s.triples[id]
		if (subj == "" || t.S == subj) && (pred == "" || t.P == pred) && (obj == "" || t.O == obj) {
			out = append(out, t)
		}
	}
	return out
}

// candidateList picks the smallest applicable index posting list, or the full
// store for the all-wildcard query.
func (s *Store) candidateList(subj, pred, obj string) []int {
	best := -1
	var list []int
	consider := func(l []int, bound bool) {
		if bound && (best == -1 || len(l) < best) {
			best = len(l)
			list = l
		}
	}
	consider(s.byS[subj], subj != "")
	consider(s.byP[pred], pred != "")
	consider(s.byO[obj], obj != "")
	if best == -1 {
		all := make([]int, len(s.triples))
		for i := range all {
			all[i] = i
		}
		return all
	}
	return list
}

// Objects returns the sorted distinct objects of (subj, pred, ?).
func (s *Store) Objects(subj, pred string) []string {
	set := map[string]struct{}{}
	for _, t := range s.Query(subj, pred, "") {
		set[t.O] = struct{}{}
	}
	return sortedKeys(set)
}

// FacetValues counts subjects per object value of a predicate — one facet of
// a faceted browser ("restaurants: 287, museums: 240, ...").
func (s *Store) FacetValues(pred string) map[string]int {
	counts := map[string]int{}
	seen := map[[2]string]struct{}{}
	for _, t := range s.Query("", pred, "") {
		key := [2]string{t.S, t.O}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		counts[t.O]++
	}
	return counts
}

// FilterSubjects returns the sorted subjects satisfying every pred=obj
// constraint — the conjunctive facet selection of a faceted browser ("type =
// restaurant AND city = Paris").
func (s *Store) FilterSubjects(constraints map[string]string) []string {
	if len(constraints) == 0 {
		return nil
	}
	var result map[string]struct{}
	// Apply constraints in sorted predicate order for determinism.
	preds := make([]string, 0, len(constraints))
	for p := range constraints {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		matching := map[string]struct{}{}
		for _, t := range s.Query("", p, constraints[p]) {
			matching[t.S] = struct{}{}
		}
		if result == nil {
			result = matching
			continue
		}
		for subj := range result {
			if _, ok := matching[subj]; !ok {
				delete(result, subj)
			}
		}
	}
	return sortedKeys(result)
}

// WriteNTriples serialises the store in a stable order and returns the text.
func (s *Store) WriteNTriples() string {
	lines := make([]string, len(s.triples))
	for i, t := range s.triples {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func sortedKeys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
