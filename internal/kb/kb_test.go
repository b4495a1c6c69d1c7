package kb

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/webgen"
	"repro/internal/world"
)

func testKB(t *testing.T) (*world.World, *KB) {
	t.Helper()
	w := world.Generate(world.Config{Seed: 11, KBPerType: 30})
	return w, FromWorld(w, 11)
}

func TestRootCategoryNames(t *testing.T) {
	cases := map[world.Type]string{
		world.Restaurant:      "Restaurants",
		world.Museum:          "Museums",
		world.University:      "Universities",
		world.SimpsonsEpisode: "Simpsons episodes",
	}
	for typ, want := range cases {
		if got := RootCategory(typ); got != want {
			t.Errorf("RootCategory(%s) = %q, want %q", typ, got, want)
		}
	}
}

func TestNetworkStructure(t *testing.T) {
	_, kb := testKB(t)
	root, ok := kb.Root(world.Museum)
	if !ok {
		t.Fatal("no Museums root")
	}
	if kb.CategoryName(root) != "Museums" {
		t.Errorf("root name = %q", kb.CategoryName(root))
	}
	descendants := kb.Descendants(root)
	if len(descendants) < 10 {
		t.Errorf("Museums has %d descendants, want >= 10", len(descendants))
	}
	names := map[string]bool{}
	for _, c := range descendants {
		names[kb.CategoryName(c)] = true
	}
	for _, want := range []string{"Museums by country", "Museums in France", "Museum people", "Curators"} {
		if !names[want] {
			t.Errorf("category %q missing from Museums subtree", want)
		}
	}
}

func TestHeuristicFiltersNoisyCategories(t *testing.T) {
	_, kb := testKB(t)
	root, _ := kb.Root(world.Museum)
	kept := kb.FilterByTypeName(kb.Descendants(root), "museum")
	for _, c := range kept {
		if !strings.Contains(strings.ToLower(kb.CategoryName(c)), "museum") {
			t.Errorf("filter kept %q", kb.CategoryName(c))
		}
	}
	// "Curators" must be pruned; "Museum people" survives (Figure 6).
	keptNames := map[string]bool{}
	for _, c := range kept {
		keptNames[kb.CategoryName(c)] = true
	}
	if keptNames["Curators"] {
		t.Error("Curators survived the heuristic")
	}
	if !keptNames["Museum people"] {
		t.Error("Museum people should survive the heuristic (contains the type word)")
	}
}

func TestPositiveEntitiesMostlyCorrectType(t *testing.T) {
	w, kb := testKB(t)
	rng := rand.New(rand.NewSource(1))
	names := kb.PositiveEntities(world.Restaurant, 0, rng)
	if len(names) < 20 {
		t.Fatalf("only %d positive restaurants", len(names))
	}
	inWorld := 0
	for _, n := range names {
		for _, e := range w.ByName(n) {
			if e.Type == world.Restaurant && e.InKB {
				inWorld++
				break
			}
		}
	}
	frac := float64(inWorld) / float64(len(names))
	if frac < 0.85 {
		t.Errorf("only %.2f of positive entities are true restaurants (noise too high)", frac)
	}
	if frac == 1.0 {
		t.Logf("note: no noise sampled this time (heuristic noise is probabilistic)")
	}
}

func TestPositiveEntitiesCap(t *testing.T) {
	_, kb := testKB(t)
	rng := rand.New(rand.NewSource(2))
	names := kb.PositiveEntities(world.Hotel, 5, rng)
	if len(names) != 5 {
		t.Errorf("cap ignored: got %d", len(names))
	}
}

func TestCatalogue(t *testing.T) {
	w, kb := testKB(t)
	cat := kb.Catalogue()
	if len(cat) == 0 {
		t.Fatal("empty catalogue")
	}
	// Every KBPool entity appears with its type.
	miss := 0
	for _, e := range w.Entities {
		if !e.InKB {
			continue
		}
		if typ, ok := cat[strings.ToLower(e.Name)]; !ok || typ != string(e.Type) {
			miss++
		}
	}
	// A few entities may collide by name across types (later type wins);
	// near-complete coverage is required.
	if miss > len(cat)/20 {
		t.Errorf("%d KB entities missing or mistyped in catalogue of %d", miss, len(cat))
	}
	// Noisy-category people have no type and must be absent.
	if _, ok := cat["walter kovacs"]; ok {
		t.Error("noise entity leaked into catalogue")
	}
}

func TestDescendantsNoDuplicates(t *testing.T) {
	_, kb := testKB(t)
	for _, typ := range world.AllTypes {
		root, _ := kb.Root(typ)
		seen := map[CatID]bool{}
		for _, c := range kb.Descendants(root) {
			if seen[c] {
				t.Fatalf("duplicate category %q in Descendants(%s)", kb.CategoryName(c), typ)
			}
			seen[c] = true
		}
	}
}

func TestTrainingBuilderCollect(t *testing.T) {
	w, kb := testKB(t)
	docs := webgen.BuildCorpus(w, webgen.Config{Seed: 11, NoiseDocs: 50})
	ib := search.NewBuilder(1)
	for _, d := range docs {
		ib.Add(d)
	}
	engine := search.NewShardedEngine(ib.Freeze())
	b := &TrainingBuilder{KB: kb, Engine: engine, SnippetsPerEntity: 5, MaxEntities: 10, Seed: 11}
	train, test, stats := b.Collect([]world.Type{world.Museum, world.Restaurant})
	if train.Len() == 0 || test.Len() == 0 {
		t.Fatalf("empty corpus: train=%d test=%d", train.Len(), test.Len())
	}
	// 75/25 split per type.
	for _, s := range stats {
		total := s.Train + s.Test
		if total == 0 {
			t.Fatalf("no snippets for %s", s.Type)
		}
		frac := float64(s.Train) / float64(total)
		if frac < 0.70 || frac > 0.80 {
			t.Errorf("%s split %.2f, want ~0.75", s.Type, frac)
		}
	}
	labels := train.Labels()
	if len(labels) != 2 {
		t.Errorf("labels = %v, want museum+restaurant", labels)
	}
	if engine.Stats().Queries == 0 {
		t.Error("builder did not query the engine")
	}
}

// TestTrainingBuilderOneQueryPerEntity: §5.2.1 sends one "entity name + type
// name" query per sampled entity and keeps at most SnippetsPerEntity snippets
// of each.
func TestTrainingBuilderOneQueryPerEntity(t *testing.T) {
	w, kb := testKB(t)
	docs := webgen.BuildCorpus(w, webgen.Config{Seed: 11, NoiseDocs: 50})
	ib := search.NewBuilder(1)
	for _, d := range docs {
		ib.Add(d)
	}
	engine := search.NewShardedEngine(ib.Freeze())
	b := &TrainingBuilder{KB: kb, Engine: engine, SnippetsPerEntity: 5, MaxEntities: 10, Seed: 11}
	entities := len(kb.PositiveEntities(world.Museum, 10, rand.New(rand.NewSource(11))))
	if entities == 0 {
		t.Fatal("no museum entities sampled")
	}
	train, test, _ := b.Collect([]world.Type{world.Museum})
	if got := engine.Stats().Queries; got != entities {
		t.Errorf("Queries = %d, want one per sampled entity (%d)", got, entities)
	}
	if n := train.Len() + test.Len(); n == 0 || n > 5*entities {
		t.Errorf("collected %d snippets from %d entities, want 1..%d", n, entities, 5*entities)
	}
}
