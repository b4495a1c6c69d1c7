package rdf

import (
	"fmt"
	"strings"

	"repro/internal/annotate"
	"repro/internal/gazetteer"
	"repro/internal/table"
)

// Standard predicates of the POI repository.
const (
	PredType    = "rdf:type"
	PredLabel   = "rdfs:label"
	PredAddress = "poi:address"
	PredPhone   = "poi:phone"
	PredCity    = "poi:city"
	PredSource  = "poi:sourceTable"
	PredScore   = "poi:confidence"
)

// Extractor converts annotated tables into POI triples — the extraction step
// of the DataBridges application the paper describes in §1.
type Extractor struct {
	// Gazetteer, when set, geocodes address cells to attach a poi:city
	// triple. Ambiguous addresses take the first candidate's city; run
	// the annotator with disambiguation for better choices upstream.
	Gazetteer *gazetteer.Frozen
	// MinScore drops annotations below this Eq. 1 confidence.
	MinScore float64
}

// Extract appends triples for every annotation of the table to the store and
// returns the number of POIs extracted.
func (x *Extractor) Extract(tbl *table.Table, anns []annotate.Annotation, store *Store) int {
	count := 0
	for _, ann := range anns {
		if ann.Score < x.MinScore {
			continue
		}
		name := strings.TrimSpace(tbl.Cell(ann.Row, ann.Col))
		if name == "" {
			continue
		}
		subj := subjectURI(tbl.Name, ann.Row, ann.Col)
		store.Add(Triple{subj, PredType, ann.Type})
		store.Add(Triple{subj, PredLabel, name})
		store.Add(Triple{subj, PredSource, tbl.Name})
		store.Add(Triple{subj, PredScore, fmt.Sprintf("%.2f", ann.Score)})
		x.rowContext(tbl, ann.Row, subj, store)
		count++
	}
	return count
}

// rowContext attaches the row's address and phone cells to the POI.
func (x *Extractor) rowContext(tbl *table.Table, row int, subj string, store *Store) {
	for j := 1; j <= tbl.NumCols(); j++ {
		cell := strings.TrimSpace(tbl.Cell(row, j))
		if cell == "" {
			continue
		}
		switch {
		case tbl.Columns[j-1].Type == table.Location:
			store.Add(Triple{subj, PredAddress, cell})
			if x.Gazetteer != nil {
				if cands := x.Gazetteer.Geocode(cell); len(cands) > 0 {
					if city := x.Gazetteer.CityOf(cands[0]); city != gazetteer.NoLocation {
						store.Add(Triple{subj, PredCity, x.Gazetteer.Name(city)})
					}
				}
			}
		case annotate.CheckCell(cell) == annotate.SkipPhone:
			store.Add(Triple{subj, PredPhone, cell})
		}
	}
}

// subjectURI mints a stable subject for a table cell.
func subjectURI(tableName string, row, col int) string {
	return fmt.Sprintf("poi:%s/r%dc%d", tableName, row, col)
}
