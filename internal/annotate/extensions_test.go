package annotate

import (
	"testing"
	"testing/quick"

	"repro/internal/table"
	"repro/internal/textproc"
)

func TestLeaderClusterSeparatesSenses(t *testing.T) {
	feats := []textproc.Features{
		textproc.Extract("restaurant menu chef dining cuisine"),
		textproc.Extract("menu dining chef dishes restaurant"),
		textproc.Extract("jazz label vinyl records saxophone"),
		textproc.Extract("saxophone quartet jazz vinyl label"),
		textproc.Extract("restaurant cuisine dishes menu dining"),
	}
	clusters := leaderCluster(feats, 0.2)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 senses", len(clusters))
	}
	if len(clusters[0]) != 3 || len(clusters[1]) != 2 {
		t.Errorf("cluster sizes = %d/%d, want 3/2", len(clusters[0]), len(clusters[1]))
	}
}

func TestLeaderClusterThresholdExtremes(t *testing.T) {
	feats := []textproc.Features{
		textproc.Extract("alpha beta gamma"),
		textproc.Extract("delta epsilon zeta"),
		textproc.Extract("alpha beta gamma"),
	}
	// Threshold above 1: everything is its own cluster.
	if got := leaderCluster(feats, 1.1); len(got) != 3 {
		t.Errorf("threshold>1 clusters = %d, want 3", len(got))
	}
	// Threshold 0 accepts everything into the first cluster (cosine >= 0).
	if got := leaderCluster(feats, 0); len(got) != 1 {
		t.Errorf("threshold 0 clusters = %d, want 1", len(got))
	}
}

// TestLeaderClusterPartition: clustering is a partition — every index
// appears in exactly one cluster.
func TestLeaderClusterPartition(t *testing.T) {
	f := func(seeds []uint16, thresholdRaw uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 20 {
			seeds = seeds[:20]
		}
		words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
		feats := make([]textproc.Features, len(seeds))
		for i, s := range seeds {
			text := words[s%8] + " " + words[(s>>3)%8] + " " + words[(s>>6)%8]
			feats[i] = textproc.Extract(text)
		}
		threshold := float64(thresholdRaw) / 255
		clusters := leaderCluster(feats, threshold)
		seen := map[int]int{}
		for _, c := range clusters {
			for _, idx := range c {
				seen[idx]++
			}
		}
		if len(seen) != len(feats) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCosine(t *testing.T) {
	a := textproc.Extract("museum gallery museum")
	b := textproc.Extract("museum gallery museum")
	if c := cosine(a, b); c < 0.999 || c > 1.001 {
		t.Errorf("cosine(self) = %v, want 1", c)
	}
	d := textproc.Extract("jazz vinyl saxophone")
	if c := cosine(a, d); c != 0 {
		t.Errorf("cosine(disjoint) = %v, want 0", c)
	}
	if c := cosine(a, textproc.Features{}); c != 0 {
		t.Errorf("cosine(empty) = %v, want 0", c)
	}
}

// TestClusterDecideRecoversAmbiguousName: the Melisse case without spatial
// data — the jazz-label pages split the flat majority, but the dominant
// restaurant cluster is coherent, so the cluster rule annotates it.
func TestClusterDecideRecoversAmbiguousName(t *testing.T) {
	f := newFixture(t)
	tbl := table.New("amb", table.Column{Header: "Name", Type: table.Text})
	if err := tbl.AppendRow("Melisse"); err != nil {
		t.Fatal(err)
	}

	clustered := f.config()
	clustered.ClusterThreshold = 0.2
	clusRes := annotateTable(clustered, tbl)

	clusAnn, clusOK := find(clusRes, 1, 1)
	if !clusOK {
		t.Fatal("cluster rule did not annotate the ambiguous name")
	}
	if clusAnn.Type != "restaurant" {
		t.Errorf("cluster rule annotated %q, want restaurant", clusAnn.Type)
	}
	if clusAnn.Score <= 0 || clusAnn.Score > 1 {
		t.Errorf("cluster score %v outside (0, 1]", clusAnn.Score)
	}
}

func TestHybridUsesCatalogueFirst(t *testing.T) {
	f := newFixture(t)
	h := &Hybrid{
		Catalogue: &CatalogueAnnotator{Catalogue: map[string]string{
			"musée lavande": "museum",
			"chez martin":   "restaurant",
		}},
		Discovery: f.config(),
	}
	tbl := table.New("names", table.Column{Header: "Name", Type: table.Text})
	for _, name := range []string{"Musée Lavande", "National Museum of Glass", "Chez Martin", "The Golden Fig"} {
		if err := tbl.AppendRow(name); err != nil {
			t.Fatal(err)
		}
	}
	res := h.AnnotateTable(tbl)

	// All four name cells annotated: two from the catalogue, two
	// discovered.
	for row := 1; row <= 4; row++ {
		if _, ok := find(res, row, 1); !ok {
			t.Errorf("row %d not annotated by hybrid", row)
		}
	}
	// Only the two unknown names hit the engine.
	if res.Queries != 2 {
		t.Errorf("hybrid issued %d queries, want 2 (catalogue saved the rest)", res.Queries)
	}
	// Catalogue hits carry score 1.0.
	if ann, _ := find(res, 1, 1); ann.Score != 1.0 || ann.Type != "museum" {
		t.Errorf("catalogue annotation = %+v", ann)
	}
}

func TestHybridFewerQueriesThanDiscovery(t *testing.T) {
	f := newFixture(t)
	tbl := poiTable(t)
	full := annotateTable(f.config(), tbl)
	h := &Hybrid{
		Catalogue: &CatalogueAnnotator{Catalogue: map[string]string{
			"musée lavande":            "museum",
			"national museum of glass": "museum",
			"chez martin":              "restaurant",
		}},
		Discovery: f.config(),
	}
	hres := h.AnnotateTable(tbl)
	if hres.Queries >= full.Queries {
		t.Errorf("hybrid queries = %d, want < %d", hres.Queries, full.Queries)
	}
}

func TestHybridPostprocessesMergedSet(t *testing.T) {
	f := newFixture(t)
	// Figure-8 style table; the catalogue knows one museum, discovery
	// finds the rest, and post-processing must still kill the repeated
	// type-word column across the merged annotation set.
	tbl := table.New("fig8h",
		table.Column{Header: "Name", Type: table.Text},
		table.Column{Header: "Type", Type: table.Text},
	)
	for _, name := range []string{"Musée Lavande", "National Museum of Glass", "Harbor Gallery of Art"} {
		if err := tbl.AppendRow(name, "Museum"); err != nil {
			t.Fatal(err)
		}
	}
	disc := f.config()
	disc.Postprocess = true
	h := &Hybrid{
		Catalogue: &CatalogueAnnotator{Catalogue: map[string]string{"musée lavande": "museum"}},
		Discovery: disc,
	}
	res := h.AnnotateTable(tbl)
	for _, ann := range res.Annotations {
		if ann.Col == 2 {
			t.Errorf("hybrid post-processing kept spurious annotation %+v", ann)
		}
	}
	if _, ok := find(res, 1, 1); !ok {
		t.Error("catalogue annotation lost in merge")
	}
}
