// Package eval wires the complete reproduction together (universe → corpus →
// knowledge base → classifiers → datasets) and provides one runner per table
// and analysis of the paper's evaluation section: Table 1 (methods × types),
// Table 2 (classifier training), Table 3 (post-processing and disambiguation
// ablation), the Wiki Manual comparison of §6.3 and the efficiency analysis
// of §6.4.
package eval

import (
	"runtime"
	"sync"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/gazetteer"
	"repro/internal/kb"
	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/webgen"
	"repro/internal/world"
)

// annotateK is the top-k snippet count at annotation time (the paper's
// k = 10); KSweep varies it per run.
const annotateK = 10

// svmEpochs is the linear SVM's training epoch count.
const svmEpochs = 10

// LabConfig scales the experiment. The zero value selects the full-size
// configuration used by cmd/experiments; tests use smaller settings.
type LabConfig struct {
	Seed int64
	// KBPerType is the number of knowledge-base entities per type
	// (default 240; the training corpus scales with it).
	KBPerType int
	// SnippetsPerEntity caps snippets per training entity (default 8,
	// paper uses up to 10).
	SnippetsPerEntity int
	// MaxTrainEntities caps the sampled P set per type (default 0 = all).
	MaxTrainEntities int
	// AmbiguityRate overrides the universe's confuser-sense rate
	// (0 keeps the world default of 0.35). Used by the ambiguity sweep.
	AmbiguityRate float64
	// Parallelism bounds the annotation worker pools of every dataset
	// run (tables are annotated concurrently; <= 1 runs sequentially).
	// Every reported number is identical at any setting.
	Parallelism int
	// ShareCache enables the cross-table query-verdict cache: repeated
	// cell values across tables and across analyses stop costing
	// search-engine round-trips. Off by default because it changes the
	// reported query counts (quality numbers are unaffected).
	ShareCache bool
	// CacheMaxEntries caps the shared cache's entry count (0 = unbounded);
	// it only matters with ShareCache set. See qcache.Options for the
	// eviction semantics.
	CacheMaxEntries int
	// SearchShards is the shard count of the search index: each query's
	// scoring fans out across the shards in parallel, with results
	// byte-identical to a monolithic index (every reported number is
	// unaffected). 0 selects one shard per available CPU, capped at 8;
	// 1 effectively disables sharding.
	SearchShards int

	// Adversarial world knobs, passed straight through to world.Config
	// and webgen.Config for the scenario matrix. All default to off and,
	// when off, leave the generated apparatus byte-identical.
	GazScale       int
	POIHomonymRate float64
	DiacriticRate  float64
	ConfuserBoost  int
}

func (c LabConfig) withDefaults() LabConfig {
	if c.KBPerType == 0 {
		c.KBPerType = 240
	}
	if c.SnippetsPerEntity == 0 {
		c.SnippetsPerEntity = 8
	}
	if c.SearchShards == 0 {
		c.SearchShards = min(runtime.GOMAXPROCS(0), 8)
	}
	return c
}

// Lab holds every component of the reproduction, built once and shared by
// the experiment runners.
type Lab struct {
	Cfg    LabConfig
	World  *world.World
	KB     *kb.KB
	Engine *search.Engine

	// Geo is the universe's frozen gazetteer (World.Gaz); the annotation
	// pipeline and the serving layer work against it.
	Geo *gazetteer.Frozen

	SVM   classify.Classifier
	Bayes classify.Classifier

	// TrainStats are the per-type |TR|/|TE| sizes (Table 2).
	TrainStats []kb.CorpusStats
	// TestPerType holds the per-type one-vs-rest F of both classifiers
	// on the held-out snippet test set (Table 2).
	TestPerType map[string]struct{ SVM, Bayes float64 }

	GFT  *dataset.Dataset
	Wiki *dataset.Dataset

	// Cache is the cross-table query-verdict cache shared by every
	// dataset run; non-nil iff Cfg.ShareCache is set.
	Cache *qcache.Cache

	// runMemo memoizes full-dataset annotation runs per annotator
	// configuration, so analyses that re-run the canonical pipeline
	// (Table 1, Table 3, hybrid, subsumption, …) share one result set.
	// Memoized results are deterministic and treated as read-only.
	// runMu guards only the map; each entry's once serialises its own
	// computation, so distinct configurations annotate concurrently.
	runMu   sync.Mutex
	runMemo map[string]*memoEntry
}

// memoEntry is one memoized dataset run with singleflight semantics.
type memoEntry struct {
	once sync.Once
	res  map[string]*annotate.Result
}

// TypeStrings returns Γ as strings in evaluation order.
func TypeStrings() []string {
	out := make([]string, len(world.AllTypes))
	for i, t := range world.AllTypes {
		out[i] = string(t)
	}
	return out
}

// NewLab builds the full experimental apparatus deterministically from the
// configuration.
func NewLab(cfg LabConfig) *Lab {
	cfg = cfg.withDefaults()
	l := &Lab{Cfg: cfg, runMemo: map[string]*memoEntry{}}
	if cfg.ShareCache {
		l.Cache = qcache.NewWithOptions(qcache.Options{MaxEntries: cfg.CacheMaxEntries})
	}

	l.World = world.Generate(world.Config{
		Seed:           cfg.Seed,
		KBPerType:      cfg.KBPerType,
		AmbiguityRate:  cfg.AmbiguityRate,
		GazScale:       cfg.GazScale,
		POIHomonymRate: cfg.POIHomonymRate,
		DiacriticRate:  cfg.DiacriticRate,
	})
	l.Geo = l.World.Gaz
	six := webgen.BuildShardedIndex(l.World, webgen.Config{
		Seed:          cfg.Seed + 1,
		ConfuserBoost: cfg.ConfuserBoost,
	}, cfg.SearchShards)
	l.Engine = search.NewShardedEngine(six)
	l.KB = kb.FromWorld(l.World, cfg.Seed+2)

	builder := &kb.TrainingBuilder{
		KB:                l.KB,
		Engine:            l.Engine,
		SnippetsPerEntity: cfg.SnippetsPerEntity,
		MaxEntities:       cfg.MaxTrainEntities,
		Seed:              cfg.Seed + 3,
	}
	train, test, stats := builder.Collect(world.AllTypes)
	l.TrainStats = stats

	l.SVM = classify.LinearSVMTrainer{Epochs: svmEpochs, Seed: cfg.Seed + 4}.Train(train)
	l.Bayes = classify.BayesTrainer{}.Train(train)

	l.TestPerType = map[string]struct{ SVM, Bayes float64 }{}
	_, svmPer := classify.Evaluate(l.SVM, test)
	_, bayesPer := classify.Evaluate(l.Bayes, test)
	for _, t := range world.AllTypes {
		l.TestPerType[string(t)] = struct{ SVM, Bayes float64 }{
			SVM:   svmPer[string(t)].F1(),
			Bayes: bayesPer[string(t)].F1(),
		}
	}

	l.GFT = dataset.BuildGFT(l.World, cfg.Seed+5)
	l.Wiki = dataset.BuildWikiManual(l.World, cfg.Seed+6)

	// Reset accounting so experiment-time query counts are clean.
	l.Engine.ResetCounters()
	return l
}
