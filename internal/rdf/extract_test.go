package rdf

import (
	"slices"
	"testing"

	"repro/internal/annotate"
	"repro/internal/gazetteer"
	"repro/internal/table"
)

// poiTable has a name, an address and a phone column: row 1 is a full POI,
// row 2 has a blank name, an address no gazetteer holds and a phone cell that
// is not a phone number.
func poiTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("pois",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Address", Type: table.Location},
		table.Column{Header: "Phone", Type: table.Text},
	)
	for _, row := range [][]string{
		{"Chez Martin", "Pennsylvania Avenue, Baltimore, MD", "(410) 555-0101"},
		{"  ", "Zzyzx Nowhere Lane, Atlantis, ZZ", "open daily"},
	} {
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestExtractSkipsBlankCells(t *testing.T) {
	store := NewStore()
	x := &Extractor{}
	if n := x.Extract(poiTable(t), []annotate.Annotation{{Row: 2, Col: 1, Type: "museum", Score: 1}}, store); n != 0 {
		t.Errorf("extracted %d POIs from a blank cell", n)
	}
	if store.Len() != 0 {
		t.Errorf("blank cell added %d triples", store.Len())
	}
}

// TestExtractWithoutGazetteer: the address is kept as a literal, but nothing
// geocodes it to a city.
func TestExtractWithoutGazetteer(t *testing.T) {
	store := NewStore()
	x := &Extractor{}
	if n := x.Extract(poiTable(t), []annotate.Annotation{{Row: 1, Col: 1, Type: "restaurant", Score: 1}}, store); n != 1 {
		t.Fatalf("extracted %d POIs, want 1", n)
	}
	subj := s0(t, store, PredLabel, "Chez Martin")
	if got := store.Objects(subj, PredAddress); !slices.Equal(got, []string{"Pennsylvania Avenue, Baltimore, MD"}) {
		t.Errorf("address = %v", got)
	}
	if got := store.Objects(subj, PredCity); len(got) != 0 {
		t.Errorf("city without a gazetteer = %v", got)
	}
	if got := store.Objects(subj, PredPhone); !slices.Equal(got, []string{"(410) 555-0101"}) {
		t.Errorf("phone = %v", got)
	}
}

// TestExtractRowContext: an address the gazetteer cannot resolve gets no city,
// and a text cell that is no phone number gets no phone triple.
func TestExtractRowContext(t *testing.T) {
	store := NewStore()
	x := &Extractor{Gazetteer: gazetteer.Synthetic(1).Freeze()}
	if n := x.Extract(poiTable(t), []annotate.Annotation{{Row: 2, Col: 3, Type: "restaurant", Score: 1}}, store); n != 1 {
		t.Fatalf("extracted %d POIs, want 1", n)
	}
	subj := s0(t, store, PredLabel, "open daily")
	if got := store.Objects(subj, PredAddress); len(got) != 1 {
		t.Errorf("address = %v", got)
	}
	if got := store.Objects(subj, PredCity); len(got) != 0 {
		t.Errorf("unresolvable address got city %v", got)
	}
	if got := store.Objects(subj, PredPhone); len(got) != 0 {
		t.Errorf("non-phone cell became phone %v", got)
	}
}

// TestExtractIdempotent: each annotated cell mints its own subject, and
// extracting a table again adds nothing to the store.
func TestExtractIdempotent(t *testing.T) {
	store := NewStore()
	x := &Extractor{}
	anns := []annotate.Annotation{
		{Row: 1, Col: 1, Type: "restaurant", Score: 1},
		{Row: 1, Col: 3, Type: "restaurant", Score: 1},
	}
	if n := x.Extract(poiTable(t), anns, store); n != 2 {
		t.Fatalf("extracted %d POIs, want 2", n)
	}
	size := store.Len()
	if n := x.Extract(poiTable(t), anns, store); n != 2 || store.Len() != size {
		t.Errorf("second extraction: %d POIs, store %d → %d triples", n, size, store.Len())
	}
	subjects := store.FilterSubjects(map[string]string{PredSource: "pois"})
	if want := []string{"poi:pois/r1c1", "poi:pois/r1c3"}; !slices.Equal(subjects, want) {
		t.Errorf("subjects = %v, want %v", subjects, want)
	}
}

// TestExtractMinScoreInclusive: an annotation scoring exactly MinScore is
// kept, with its score as a two-decimal literal; one just below is dropped.
func TestExtractMinScoreInclusive(t *testing.T) {
	store := NewStore()
	x := &Extractor{MinScore: 0.5}
	anns := []annotate.Annotation{
		{Row: 1, Col: 1, Type: "restaurant", Score: 0.5},
		{Row: 1, Col: 3, Type: "restaurant", Score: 0.4999},
	}
	if n := x.Extract(poiTable(t), anns, store); n != 1 {
		t.Fatalf("extracted %d POIs, want 1", n)
	}
	subj := s0(t, store, PredLabel, "Chez Martin")
	if got := store.Objects(subj, PredScore); !slices.Equal(got, []string{"0.50"}) {
		t.Errorf("confidence = %v, want [0.50]", got)
	}
	if got := store.Objects(subj, PredSource); !slices.Equal(got, []string{"pois"}) {
		t.Errorf("source = %v, want [pois]", got)
	}
}
