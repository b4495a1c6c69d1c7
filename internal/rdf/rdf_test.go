package rdf

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/annotate"
	"repro/internal/gazetteer"
	"repro/internal/table"
)

func seeded() *Store {
	s := NewStore()
	s.Add(Triple{"poi:1", PredType, "restaurant"})
	s.Add(Triple{"poi:1", PredLabel, "Chez Martin"})
	s.Add(Triple{"poi:1", PredCity, "Paris"})
	s.Add(Triple{"poi:2", PredType, "restaurant"})
	s.Add(Triple{"poi:2", PredLabel, "The Golden Fig"})
	s.Add(Triple{"poi:2", PredCity, "Lyon"})
	s.Add(Triple{"poi:3", PredType, "museum"})
	s.Add(Triple{"poi:3", PredLabel, "Musée Lavande"})
	s.Add(Triple{"poi:3", PredCity, "Paris"})
	return s
}

func TestAddDeduplicates(t *testing.T) {
	s := NewStore()
	tr := Triple{"a", "b", "c"}
	s.Add(tr)
	s.Add(tr)
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (set semantics)", s.Len())
	}
}

func TestQueryPatterns(t *testing.T) {
	s := seeded()
	cases := []struct {
		subj, pred, obj string
		want            int
	}{
		{"poi:1", "", "", 3},
		{"", PredType, "", 3},
		{"", PredType, "restaurant", 2},
		{"", "", "Paris", 2},
		{"poi:1", PredType, "restaurant", 1},
		{"", "", "", 9},
		{"poi:9", "", "", 0},
		{"", PredType, "castle", 0},
	}
	for _, c := range cases {
		got := s.Query(c.subj, c.pred, c.obj)
		if len(got) != c.want {
			t.Errorf("Query(%q,%q,%q) = %d triples, want %d", c.subj, c.pred, c.obj, len(got), c.want)
		}
	}
}

func TestObjectsSubjects(t *testing.T) {
	s := seeded()
	if got := s.Objects("poi:1", PredCity); len(got) != 1 || got[0] != "Paris" {
		t.Errorf("Objects = %v", got)
	}
	subj := s.FilterSubjects(map[string]string{PredCity: "Paris"})
	if len(subj) != 2 || subj[0] != "poi:1" || subj[1] != "poi:3" {
		t.Errorf("FilterSubjects = %v", subj)
	}
}

func TestFacets(t *testing.T) {
	s := seeded()
	types := s.FacetValues(PredType)
	if types["restaurant"] != 2 || types["museum"] != 1 {
		t.Errorf("type facet = %v", types)
	}
	cities := s.FacetValues(PredCity)
	if cities["Paris"] != 2 || cities["Lyon"] != 1 {
		t.Errorf("city facet = %v", cities)
	}
}

func TestFilterSubjectsConjunction(t *testing.T) {
	s := seeded()
	got := s.FilterSubjects(map[string]string{PredType: "restaurant", PredCity: "Paris"})
	if len(got) != 1 || got[0] != "poi:1" {
		t.Errorf("FilterSubjects = %v, want [poi:1]", got)
	}
	if got := s.FilterSubjects(nil); got != nil {
		t.Errorf("empty constraints should return nil")
	}
	if got := s.FilterSubjects(map[string]string{PredType: "castle"}); len(got) != 0 {
		t.Errorf("unsatisfiable constraint returned %v", got)
	}
}

func TestWriteNTriples(t *testing.T) {
	s := seeded()
	out := s.WriteNTriples()
	if !strings.Contains(out, `poi:1 rdfs:label "Chez Martin" .`) {
		t.Errorf("serialisation missing label line:\n%s", out)
	}
	if lines := strings.Split(out, "\n"); len(lines) != s.Len() {
		t.Errorf("serialised %d lines, want %d", len(lines), s.Len())
	}
}

// TestQueryWildcardConsistency: for random stores, Query("", "", "") returns
// exactly Len() triples and every bound query is a subset.
func TestQueryWildcardConsistency(t *testing.T) {
	f := func(parts [][3]byte) bool {
		s := NewStore()
		for _, p := range parts {
			s.Add(Triple{
				S: string('a' + p[0]%4),
				P: string('a' + p[1]%3),
				O: string('a' + p[2]%5),
			})
		}
		if len(s.Query("", "", "")) != s.Len() {
			return false
		}
		for _, tr := range s.Query("", "", "") {
			found := false
			for _, got := range s.Query(tr.S, tr.P, tr.O) {
				if got == tr {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExtractFromAnnotatedTable(t *testing.T) {
	tbl := table.New("pois",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Address", Type: table.Location},
		table.Column{Header: "Phone", Type: table.Text},
	)
	if err := tbl.AppendRow("Chez Martin", "Pennsylvania Avenue, Baltimore, MD", "(410) 555-0101"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow("Musée Lavande", "Clarksville Street, Paris, TX", "(410) 555-0102"); err != nil {
		t.Fatal(err)
	}
	res := []annotate.Annotation{
		{Row: 1, Col: 1, Type: "restaurant", Score: 0.9},
		{Row: 2, Col: 1, Type: "museum", Score: 0.4},
	}
	store := NewStore()
	x := &Extractor{Gazetteer: gazetteer.Synthetic(1).Freeze(), MinScore: 0.5}
	n := x.Extract(tbl, res, store)
	if n != 1 {
		t.Fatalf("extracted %d POIs, want 1 (score filter)", n)
	}
	subj := s0(t, store, PredLabel, "Chez Martin")
	if got := store.Objects(subj, PredType); len(got) != 1 || got[0] != "restaurant" {
		t.Errorf("type = %v", got)
	}
	if got := store.Objects(subj, PredAddress); len(got) != 1 {
		t.Errorf("address triples = %v", got)
	}
	if got := store.Objects(subj, PredPhone); len(got) != 1 {
		t.Errorf("phone triples = %v", got)
	}
	if got := store.Objects(subj, PredCity); len(got) != 1 || got[0] != "Baltimore" {
		t.Errorf("city = %v, want [Baltimore]", got)
	}
}

func s0(t *testing.T, store *Store, pred, obj string) string {
	t.Helper()
	subjs := store.FilterSubjects(map[string]string{pred: obj})
	if len(subjs) != 1 {
		t.Fatalf("FilterSubjects(%s=%s) = %v, want exactly one", pred, obj, subjs)
	}
	return subjs[0]
}
