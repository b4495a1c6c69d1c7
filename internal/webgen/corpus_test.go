package webgen

import (
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/world"
)

func testCorpus(t *testing.T) (*world.World, []search.Document) {
	t.Helper()
	w := world.Generate(world.Config{Seed: 7, KBPerType: 20})
	docs := BuildCorpus(w, Config{Seed: 7, NoiseDocs: 50})
	return w, docs
}

func TestCorpusCoversAllEntities(t *testing.T) {
	w, docs := testCorpus(t)
	mentioned := map[string]bool{}
	for _, d := range docs {
		mentioned[strings.ToLower(d.Title)] = true
	}
	missing := 0
	for _, e := range w.Entities {
		found := false
		for title := range mentioned {
			if strings.Contains(title, strings.ToLower(e.Name)) {
				found = true
				break
			}
		}
		if !found {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d entities have no page title mentioning them", missing)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	w := world.Generate(world.Config{Seed: 3, KBPerType: 10})
	d1 := BuildCorpus(w, Config{Seed: 3, NoiseDocs: 20})
	d2 := BuildCorpus(w, Config{Seed: 3, NoiseDocs: 20})
	if len(d1) != len(d2) {
		t.Fatalf("sizes differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].Body != d2[i].Body || d1[i].Title != d2[i].Title {
			t.Fatalf("doc %d differs between same-seed builds", i)
		}
	}
}

func TestEntityPagesUseTypeVocabulary(t *testing.T) {
	w, docs := testCorpus(t)
	rest := w.OfType(world.Restaurant)[0]
	vocab := map[string]bool{}
	for _, v := range Vocab(world.Restaurant) {
		vocab[v] = true
	}
	found := false
	for _, d := range docs {
		if !strings.Contains(d.Title, rest.Name) && !strings.HasPrefix(d.Body, rest.Name) {
			continue
		}
		hits := 0
		for _, wd := range strings.Fields(d.Body) {
			if vocab[wd] {
				hits++
			}
		}
		if hits >= 5 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no page for %q dense in restaurant vocabulary", rest.Name)
	}
}

func TestConfuserPagesExist(t *testing.T) {
	w, docs := testCorpus(t)
	if len(w.Confusers) == 0 {
		t.Skip("no confusers in this universe")
	}
	c := w.Confusers[0]
	found := false
	for _, d := range docs {
		if strings.Contains(d.Title, c.Name) && strings.Contains(d.Title, c.Kind) {
			found = true
			// Confuser pages must not be dominated by Γ vocab.
			if strings.Contains(d.Body, "museum gallery exhibition") {
				t.Errorf("confuser page body looks like a Γ-type page")
			}
		}
	}
	if !found {
		t.Errorf("no page for confuser %q (%s)", c.Name, c.Kind)
	}
}

func TestPOIPagesMentionCity(t *testing.T) {
	w, docs := testCorpus(t)
	misses := 0
	checked := 0
	for _, e := range w.OfType(world.Hotel) {
		if checked >= 20 {
			break
		}
		checked++
		city := strings.ToLower(w.Gaz.Name(e.City))
		found := false
		for _, d := range docs {
			if strings.HasPrefix(d.Body, e.Name) && strings.Contains(strings.ToLower(d.Body), city) {
				found = true
				break
			}
		}
		if !found {
			misses++
		}
	}
	// City words are drawn probabilistically; most POI entities must
	// have at least one page mentioning their city.
	if misses > checked/2 {
		t.Errorf("%d/%d hotels have no page mentioning their city", misses, checked)
	}
}

func TestEndToEndSearchFindsEntity(t *testing.T) {
	w, docs := testCorpus(t)
	b := search.NewBuilder(1)
	for _, d := range docs {
		b.Add(d)
	}
	ix := b.Freeze()
	e := w.OfType(world.Museum)[0]
	res := ix.Search(e.Name, 10)
	if len(res) == 0 {
		t.Fatalf("no results for %q", e.Name)
	}
	hit := false
	for _, r := range res {
		if strings.Contains(r.Title, e.Name) || strings.Contains(r.Snippet, e.Name) {
			hit = true
		}
	}
	if !hit {
		t.Errorf("top-10 for %q does not surface the entity; top: %q", e.Name, res[0].Title)
	}
}
