package webgen

import (
	"iter"
	"math/rand"
	"slices"
	"strconv"
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

// Corpus generates the synthetic web for a universe as a sequence of
// documents, deterministic in cfg.Seed: a build indexes each page as it comes.
func Corpus(w *world.World, cfg Config) iter.Seq[search.Document] {
	return func(yield func(search.Document) bool) {
		cfg := cfg.withDefaults()
		rng := rand.New(rand.NewSource(cfg.Seed))
		bw := newBodyWriter()
		n := 0
		add := func(title, body string) bool {
			url := "http://web.example.com/p/" + strconv.Itoa(n)
			n++
			return yield(search.Document{
				URL:   url,
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
				if !add(entityTitle(e, rng), bw.entityBody(e, city, w.Gaz, rng)) {
					return
				}
			}
			if rng.Float64() < reviewFraction && !add("Review of "+e.Name, bw.reviewBody(e, city, rng)) {
				return
			}
		}

		for _, c := range w.Confusers {
			vocab := confuserVocab[c.Kind]
			if vocab == nil {
				vocab = reviewVocab
			}
			for p := 0; p < pagesPerConfuser+cfg.ConfuserBoost; p++ {
				if !add(c.Name+" — "+c.Kind, bw.themedBody("", c.Name, vocab, nil, rng, 60)) {
					return
				}
			}
		}

		for i := 0; i < cfg.NoiseDocs; i++ {
			topic := noiseTopics[rng.Intn(len(noiseTopics))]
			if !add("Daily notes "+strconv.Itoa(i), bw.themedBody("", "", topic, nil, rng, 70)) {
				return
			}
		}
	}
}

// BuildCorpus generates the synthetic web for a universe and returns the
// documents, deterministic in cfg.Seed.
func BuildCorpus(w *world.World, cfg Config) []search.Document {
	return slices.Collect(Corpus(w, cfg))
}

// BuildShardedIndex generates the corpus for a universe and returns it
// indexed and frozen — the form every consumer (lab construction, commands,
// benchmarks) actually wants. The corpus is partitioned round-robin
// across max(1, shards) shards in global order, each page indexed as it is
// generated; queries are byte-identical at every shard count while each one's
// scoring work can spread over the shards.
func BuildShardedIndex(w *world.World, cfg Config, shards int) *search.ShardedIndex {
	return search.Build(shards, Corpus(w, cfg))
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

// bodyWriter writes one corpus's page bodies: it holds each type's vocabulary
// blends, made once, and the scratch a body's words are drawn into before the
// body is written.
type bodyWriter struct {
	// entityBlend[t] is type t's vocabulary blended with a quarter of its
	// contaminant's (see contaminants); reviewBlend[t] is the review
	// vocabulary blended with half of t's.
	entityBlend, reviewBlend map[world.Type][]string
	words, extra             []string
}

func newBodyWriter() *bodyWriter {
	bw := &bodyWriter{entityBlend: map[world.Type][]string{}, reviewBlend: map[world.Type][]string{}}
	for t, vocab := range typeVocab {
		if sibling, ok := contaminants[t]; ok {
			sv := typeVocab[sibling]
			vocab = append(slices.Clip(vocab), sv[:len(sv)/4]...)
		}
		bw.entityBlend[t] = vocab
		bw.reviewBlend[t] = append(slices.Clip(reviewVocab), typeVocab[t][:len(typeVocab[t])/2]...)
	}
	return bw
}

// entityBody writes a descriptive page for the entity: its name, bursts of
// type vocabulary blended with a related type's vocabulary (see
// contaminants), shared filler, and — crucially for spatial disambiguation —
// its city and street when it has them.
func (bw *bodyWriter) entityBody(e *world.Entity, city string, gaz *gazetteer.Frozen, rng *rand.Rand) string {
	extra := bw.extra[:0]
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
	bw.extra = extra
	return bw.themedBody(e.Name+" ", e.Name, bw.entityBlend[e.Type], extra, rng, 80)
}

// reviewBody writes an opinion page: review vocabulary mixed with the
// entity's type vocabulary. Its snippets look deceptively like entity
// descriptions — the spurious-annotation hazard of §5.3.
func (bw *bodyWriter) reviewBody(e *world.Entity, city string, rng *rand.Rand) string {
	extra := bw.extra[:0]
	if city != "" {
		extra = append(extra, city)
	}
	bw.extra = extra
	return bw.themedBody("review of "+e.Name+" ", e.Name, bw.reviewBlend[e.Type], extra, rng, 70)
}

// themedBody returns prefix followed by n words drawn from the theme
// vocabulary, the shared filler and the extra tokens, with the subject name
// at deterministic offsets: the words are drawn first, then the body is
// written once at its exact length.
func (bw *bodyWriter) themedBody(prefix, subject string, vocab, extra []string, rng *rand.Rand, n int) string {
	words := bw.words[:0]
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
	bw.words = words
	if subject != "" {
		// Inject the subject a few times at deterministic offsets.
		for _, at := range []int{0, n / 2} {
			words[at] = subject
		}
	}
	size := len(prefix) + len(words) - 1
	for _, w := range words {
		size += len(w)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(prefix)
	for i, w := range words {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w)
	}
	return b.String()
}
