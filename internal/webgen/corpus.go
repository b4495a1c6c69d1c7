package webgen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/gazetteer"
	"repro/internal/search"
	"repro/internal/world"
)

// Config controls corpus generation. The zero value selects the defaults.
type Config struct {
	Seed int64
	// NoiseDocs is the number of unrelated background pages (default 400).
	NoiseDocs int
	// ConfuserBoost adds extra pages per confuser sense on top of
	// pagesPerConfuser. The scenario matrix's adversarial worlds use it to
	// let alternate senses drown entity pages in the top-k; 0 (the
	// default) leaves the corpus byte-identical to the unboosted one.
	ConfuserBoost int
}

// The corpus's fixed shape: descriptive pages per entity (more pages give the
// engine more top-k depth), the expected number of extra review pages per
// entity, and pages per confuser sense (enough for the alternate sense to
// crowd the top-k of an ambiguous query until spatial disambiguation kicks
// in).
const (
	pagesPerEntity   = 5
	reviewFraction   = 0.5
	pagesPerConfuser = 5
)

func (c Config) withDefaults() Config {
	if c.NoiseDocs == 0 {
		c.NoiseDocs = 400
	}
	return c
}

// BuildCorpus generates the synthetic web for a universe and returns the
// documents, deterministic in cfg.Seed.
func BuildCorpus(w *world.World, cfg Config) []search.Document {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var docs []search.Document
	add := func(title, body string) {
		docs = append(docs, search.Document{
			URL:   fmt.Sprintf("http://web.example.com/p/%d", len(docs)),
			Title: title,
			Body:  body,
			Lang:  "en",
		})
	}

	// The first bearer of a name is its dominant sense: like on the real
	// web, one "James Brown" owns most of the result page and the other
	// bearers surface only a couple of hits. Annotation of the
	// non-dominant bearer is what fails, driving the lower people recall
	// of §6.2.
	seenName := map[string]bool{}
	for _, e := range w.Entities {
		city := ""
		if e.City != gazetteer.NoLocation {
			city = w.Gaz.Name(e.City)
		}
		pages := pagesPerEntity
		key := strings.ToLower(e.Name)
		if seenName[key] {
			pages = 1 + pages/3
		} else {
			seenName[key] = true
			pages += 2
		}
		for p := 0; p < pages; p++ {
			add(entityTitle(e, rng), entityBody(e, city, w.Gaz, rng))
		}
		if rng.Float64() < reviewFraction {
			add("Review of "+e.Name, reviewBody(e, city, rng))
		}
	}

	for _, c := range w.Confusers {
		vocab := confuserVocab[c.Kind]
		if vocab == nil {
			vocab = reviewVocab
		}
		for p := 0; p < pagesPerConfuser+cfg.ConfuserBoost; p++ {
			add(c.Name+" — "+c.Kind,
				themedBody(c.Name, vocab, nil, rng, 60))
		}
	}

	for i := 0; i < cfg.NoiseDocs; i++ {
		topic := noiseTopics[rng.Intn(len(noiseTopics))]
		add("Daily notes "+fmt.Sprint(i), themedBody("", topic, nil, rng, 70))
	}
	return docs
}

// BuildShardedIndex generates the corpus for a universe and returns it
// indexed and frozen — the form every consumer (lab construction, commands,
// benchmarks) actually wants. The corpus is partitioned round-robin
// across max(1, shards) shards in global order; queries are byte-identical at
// every shard count while each one's scoring work can spread over the shards.
func BuildShardedIndex(w *world.World, cfg Config, shards int) *search.ShardedIndex {
	b := search.NewBuilder(shards)
	for _, d := range BuildCorpus(w, cfg) {
		b.Add(d)
	}
	return b.Freeze()
}

// entityTitle renders a page title; a fraction of titles carry the type word
// ("Louvre Museum — official site"), which is what makes the TIN/TIS
// baselines partially effective on POI types.
func entityTitle(e *world.Entity, rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return e.Name + " — official site"
	case 1:
		return e.Name + " | " + world.TypeName(e.Type)
	default:
		return e.Name
	}
}

// entityBody writes a descriptive page for the entity: its name, bursts of
// type vocabulary blended with a related type's vocabulary (see
// contaminants), shared filler, and — crucially for spatial disambiguation —
// its city and street when it has them.
func entityBody(e *world.Entity, city string, gaz *gazetteer.Frozen, rng *rand.Rand) string {
	vocab := typeVocab[e.Type]
	if sibling, ok := contaminants[e.Type]; ok {
		sv := typeVocab[sibling]
		blend := make([]string, 0, len(vocab)+len(sv)/3)
		blend = append(blend, vocab...)
		blend = append(blend, sv[:len(sv)/4]...)
		vocab = blend
	}
	var extra []string
	if city != "" {
		extra = append(extra, city, city) // city mentioned repeatedly
		if e.Street != gazetteer.NoLocation {
			extra = append(extra, gaz.Name(e.Street))
		}
	}
	// POI pages mention the literal type word often; person and cinema
	// pages mention it more rarely, reproducing the baseline asymmetry
	// of Table 1 (TIS works on museums, fails on singers).
	mentions := 3
	if world.Category(e.Type) != "poi" {
		mentions = 1
	}
	for i := 0; i < mentions; i++ {
		extra = append(extra, world.TypeName(e.Type))
	}
	return e.Name + " " + themedBody(e.Name, vocab, extra, rng, 80)
}

// reviewBody writes an opinion page: review vocabulary mixed with the
// entity's type vocabulary. Its snippets look deceptively like entity
// descriptions — the spurious-annotation hazard of §5.3.
func reviewBody(e *world.Entity, city string, rng *rand.Rand) string {
	blend := append([]string{}, reviewVocab...)
	v := typeVocab[e.Type]
	blend = append(blend, v[:len(v)/2]...)
	var extra []string
	if city != "" {
		extra = append(extra, city)
	}
	return "review of " + e.Name + " " + themedBody(e.Name, blend, extra, rng, 70)
}

// themedBody produces n words drawn from the theme vocabulary, the shared
// filler and the extra tokens, with the subject name injected a few times.
func themedBody(subject string, vocab, extra []string, rng *rand.Rand, n int) string {
	words := make([]string, 0, n+8)
	for len(words) < n {
		r := rng.Float64()
		switch {
		case r < 0.20:
			words = append(words, vocab[rng.Intn(len(vocab))])
		case r < 0.85 || len(extra) == 0:
			words = append(words, sharedFiller[rng.Intn(len(sharedFiller))])
		default:
			words = append(words, extra[rng.Intn(len(extra))])
		}
	}
	if subject != "" {
		// Inject the subject a few times at deterministic offsets.
		for _, at := range []int{0, n / 2} {
			words[at] = subject
		}
	}
	return strings.Join(words, " ")
}
