package rdf

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestTripleStringQuotesObject(t *testing.T) {
	tr := Triple{"poi:1", PredLabel, "Bar \"Le Zinc\"\nParis"}
	if got, want := tr.String(), `poi:1 rdfs:label "Bar \"Le Zinc\"\nParis" .`; got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}

// TestWriteNTriplesIndependentOfInsertionOrder: the serialisation is sorted,
// so two stores holding the same set print the same text.
func TestWriteNTriplesIndependentOfInsertionOrder(t *testing.T) {
	s := seeded()
	triples := s.Query("", "", "")
	reversed := NewStore()
	for i := len(triples) - 1; i >= 0; i-- {
		reversed.Add(triples[i])
	}
	if got, want := reversed.WriteNTriples(), s.WriteNTriples(); got != want {
		t.Errorf("reversed insertion serialised to\n%s\nwant\n%s", got, want)
	}
	if got := NewStore().WriteNTriples(); got != "" {
		t.Errorf("empty store serialised to %q", got)
	}
}

func TestObjectsSortedDistinct(t *testing.T) {
	s := seeded()
	s.Add(Triple{"poi:1", PredType, "bar"})
	s.Add(Triple{"poi:1", PredType, "cafe"})
	if got, want := s.Objects("poi:1", PredType), []string{"bar", "cafe", "restaurant"}; !slices.Equal(got, want) {
		t.Errorf("Objects = %v, want %v", got, want)
	}
	if got := s.Objects("poi:9", PredType); len(got) != 0 {
		t.Errorf("Objects of an unknown subject = %v", got)
	}
}

// TestQueryKeepsInsertionOrder: whichever index drives the scan, matches come
// back in the order they were added.
func TestQueryKeepsInsertionOrder(t *testing.T) {
	s := seeded()
	want := []Triple{
		{"poi:1", PredCity, "Paris"},
		{"poi:3", PredCity, "Paris"},
	}
	for _, q := range [][3]string{{"", PredCity, "Paris"}, {"", "", "Paris"}} {
		if got := s.Query(q[0], q[1], q[2]); !slices.Equal(got, want) {
			t.Errorf("Query(%q) = %v, want %v", q, got, want)
		}
	}
}

func TestFacetValuesCountsSubjects(t *testing.T) {
	s := seeded()
	s.Add(Triple{"poi:1", PredType, "bar"})
	types := s.FacetValues(PredType)
	if want := map[string]int{"restaurant": 2, "museum": 1, "bar": 1}; len(types) != len(want) {
		t.Errorf("type facet = %v, want %v", types, want)
	} else {
		for v, n := range want {
			if types[v] != n {
				t.Errorf("type facet[%q] = %d, want %d", v, types[v], n)
			}
		}
	}
	if got := s.FacetValues("poi:unknown"); len(got) != 0 {
		t.Errorf("facet of an unknown predicate = %v", got)
	}
}

// TestFilterSubjectsMatchesBruteForce: on random stores, FilterSubjects
// returns exactly the subjects that hold every constraint, sorted.
func TestFilterSubjectsMatchesBruteForce(t *testing.T) {
	f := func(parts [][3]byte, c1, c2 [2]byte) bool {
		s := NewStore()
		for _, p := range parts {
			s.Add(Triple{S: string('a' + p[0]%5), P: string('p' + p[1]%3), O: string('x' + p[2]%3)})
		}
		constraints := map[string]string{
			string('p' + c1[0]%3): string('x' + c1[1]%3),
			string('p' + c2[0]%3): string('x' + c2[1]%3),
		}
		var want []string
		for subj := 'a'; subj < 'a'+5; subj++ {
			holds := true
			for p, o := range constraints {
				if len(s.Query(string(subj), p, o)) == 0 {
					holds = false
				}
			}
			if holds {
				want = append(want, string(subj))
			}
		}
		return slices.Equal(s.FilterSubjects(constraints), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
