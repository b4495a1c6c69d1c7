package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/table"
	"repro/internal/world"
)

// config builds the paper's pipeline configuration over the lab's
// components, wired to the lab's parallelism and (when enabled) its
// cross-table verdict cache. Analyses that need a variant (different k,
// cluster threshold, no cache) adjust the returned value before running it —
// the immutable-config pattern of internal/annotate. The classifier is bound
// to the engine's vocabulary, as the service binds its own, so the analyses
// measure the decide path the service runs.
func (l *Lab) config(clf classify.Classifier, postprocess, disambiguate bool) annotate.Config {
	return annotate.Config{
		Searcher:     l.Engine,
		Classifier:   classify.Bind(clf, l.Engine.ShardedIndex().Vocab()),
		Types:        TypeStrings(),
		K:            annotateK,
		Postprocess:  postprocess,
		Disambiguate: disambiguate,
		Gazetteer:    l.Geo,
		Parallelism:  l.Cfg.Parallelism,
		Cache:        l.Cache,
		CacheSalt:    l.clfName(clf),
	}
}

// clfName identifies a lab classifier for cache namespacing and memo keys.
func (l *Lab) clfName(clf classify.Classifier) string {
	if clf == l.Bayes {
		return "bayes"
	}
	return "svm"
}

// runDataset annotates every table of a dataset with fn and returns the
// results keyed by table name. Used for the function-shaped comparators
// (TIN, TIS, catalogue, hybrid); pipeline runs go through runConfig so they
// pick up the configured parallelism.
func runDataset(ds *dataset.Dataset, fn func(t *table.Table) *annotate.Result) map[string]*annotate.Result {
	out := make(map[string]*annotate.Result, len(ds.Tables))
	for _, t := range ds.Tables {
		out[t.Name] = fn(t)
	}
	return out
}

// runConfig annotates every table of a dataset through the batch API at the
// lab's configured parallelism; results are keyed by table name and
// identical to a sequential run.
func (l *Lab) runConfig(ds *dataset.Dataset, cfg annotate.Config) map[string]*annotate.Result {
	results, err := cfg.AnnotateBatch(context.Background(), ds.Tables)
	if err != nil {
		// Unreachable: a background context never cancels.
		panic(err)
	}
	out := make(map[string]*annotate.Result, len(ds.Tables))
	for i, t := range ds.Tables {
		out[t.Name] = results[i]
	}
	return out
}

// memoRun is runConfig memoized per pipeline configuration over the GFT
// dataset. The canonical pipeline (SVM + post-processing) is re-run by five
// different analyses; the first caller pays, the rest share the result set.
// Callers must treat the returned results as read-only.
func (l *Lab) memoRun(clf classify.Classifier, postprocess, disambiguate bool, k int, clusterThreshold float64) map[string]*annotate.Result {
	key := fmt.Sprintf("gft|%s|post=%v|dis=%v|k=%d|ct=%g",
		l.clfName(clf), postprocess, disambiguate, k, clusterThreshold)
	l.runMu.Lock()
	e, ok := l.runMemo[key]
	if !ok {
		e = &memoEntry{}
		l.runMemo[key] = e
	}
	l.runMu.Unlock()
	e.once.Do(func() {
		cfg := l.config(clf, postprocess, disambiguate)
		cfg.K = k
		cfg.ClusterThreshold = clusterThreshold
		e.res = l.runConfig(l.GFT, cfg)
	})
	return e.res
}

// sumQueries totals the search-engine queries a dataset run issued.
func sumQueries(results map[string]*annotate.Result) int {
	n := 0
	for _, r := range results {
		n += r.Queries
	}
	return n
}

// Table2Row is one row of Table 2: corpus sizes and held-out classifier F.
type Table2Row struct {
	Type   string
	Train  int
	Test   int
	BayesF float64
	SVMF   float64
}

// Table2 reports the training/test corpora and per-type classifier quality.
func (l *Lab) Table2() []Table2Row {
	rows := make([]Table2Row, 0, len(l.TrainStats))
	for _, s := range l.TrainStats {
		tf := l.TestPerType[string(s.Type)]
		rows = append(rows, Table2Row{
			Type:   string(s.Type),
			Train:  s.Train,
			Test:   s.Test,
			BayesF: tf.Bayes,
			SVMF:   tf.SVM,
		})
	}
	return rows
}

// Table1Row is one row of Table 1: P/R/F for the four methods on one type.
// Group average rows use Type "AVERAGE (<group>)".
type Table1Row struct {
	Type  string
	SVM   [3]float64 // P, R, F
	Bayes [3]float64
	TIN   [3]float64
	TIS   [3]float64
}

// Table1 runs the four methods of §6.2 (SVM and Bayes with post-processing,
// TIN, TIS) over the GFT dataset and reports per-type P/R/F plus the three
// group averages.
func (l *Lab) Table1() []Table1Row {
	types := TypeStrings()
	svmRes := l.memoRun(l.SVM, true, false, annotateK, 0)
	bayesRes := l.memoRun(l.Bayes, true, false, annotateK, 0)
	tinRes := runDataset(l.GFT, func(t *table.Table) *annotate.Result {
		return annotate.TIN(t, types)
	})
	tisCfg := l.config(l.SVM, false, false)
	tisRes := runDataset(l.GFT, func(t *table.Table) *annotate.Result {
		res, err := tisCfg.TIS(context.Background(), t)
		if err != nil {
			// Unreachable: a background context never cancels.
			panic(err)
		}
		return res
	})

	svm := ScoreDataset(l.GFT, svmRes)
	bayes := ScoreDataset(l.GFT, bayesRes)
	tin := ScoreDataset(l.GFT, tinRes)
	tis := ScoreDataset(l.GFT, tisRes)

	prf := func(m classify.Metrics) [3]float64 {
		return [3]float64{m.Precision(), m.Recall(), m.F1()}
	}
	var rows []Table1Row
	appendGroup := func(group string, groupTypes []world.Type) {
		names := make([]string, len(groupTypes))
		for i, t := range groupTypes {
			names[i] = string(t)
			rows = append(rows, Table1Row{
				Type:  string(t),
				SVM:   prf(svm[string(t)]),
				Bayes: prf(bayes[string(t)]),
				TIN:   prf(tin[string(t)]),
				TIS:   prf(tis[string(t)]),
			})
		}
		var avg Table1Row
		avg.Type = "AVERAGE (" + group + ")"
		avg.SVM[0], avg.SVM[1], avg.SVM[2] = MacroAverage(svm, names)
		avg.Bayes[0], avg.Bayes[1], avg.Bayes[2] = MacroAverage(bayes, names)
		avg.TIN[0], avg.TIN[1], avg.TIN[2] = MacroAverage(tin, names)
		avg.TIS[0], avg.TIS[1], avg.TIS[2] = MacroAverage(tis, names)
		rows = append(rows, avg)
	}
	appendGroup("poi", world.POITypes)
	appendGroup("people", world.PeopleTypes)
	appendGroup("cinema", world.CinemaTypes)
	return rows
}

// Table3Row is one row of Table 3: the F-measure of the SVM pipeline without
// post-processing, with it, and with post-processing plus disambiguation.
// Disambig is negative (reported as "–") for types without spatial data.
type Table3Row struct {
	Type     string
	SVM      float64
	Post     float64
	Disambig float64 // -1 when not applicable
}

// Table3 runs the ablation of §6.2's final experiment.
func (l *Lab) Table3() []Table3Row {
	plain := ScoreDataset(l.GFT, l.memoRun(l.SVM, false, false, annotateK, 0))
	post := ScoreDataset(l.GFT, l.memoRun(l.SVM, true, false, annotateK, 0))
	dis := ScoreDataset(l.GFT, l.memoRun(l.SVM, true, true, annotateK, 0))

	var rows []Table3Row
	for _, t := range world.AllTypes {
		row := Table3Row{
			Type: string(t),
			SVM:  plain[string(t)].F1(),
			Post: post[string(t)].F1(),
		}
		if world.HasSpatial(t) {
			row.Disambig = dis[string(t)].F1()
		} else {
			row.Disambig = -1
		}
		rows = append(rows, row)
	}
	return rows
}

// ComparisonResult is the §6.3 comparison on the Wiki Manual dataset.
type ComparisonResult struct {
	// OurF is the micro F of the paper's algorithm (SVM + postproc).
	OurF float64
	// CatalogueF is the micro F of the Limaye-style catalogue annotator.
	CatalogueF float64
	// CatalogueKnownOnlyRecall is the catalogue's recall, bounded by KB
	// coverage — the discovery gap the paper argues about.
	CatalogueRecall float64
	// OurRecall is the algorithm's recall on the same tables.
	OurRecall float64
}

// WikiComparison reproduces §6.3: both systems annotate the Wiki Manual
// dataset; the paper reports F 0.84 for its algorithm vs 0.8382 for Limaye.
func (l *Lab) WikiComparison() ComparisonResult {
	types := TypeStrings()
	ours := ScoreDataset(l.Wiki, l.runConfig(l.Wiki, l.config(l.SVM, true, false)))
	cat := &annotate.CatalogueAnnotator{Catalogue: l.KB.Catalogue()}
	catRes := ScoreDataset(l.Wiki, runDataset(l.Wiki, func(t *table.Table) *annotate.Result {
		return cat.AnnotateTable(t, types)
	}))
	our := MicroAverage(ours, types)
	catalogue := MicroAverage(catRes, types)
	return ComparisonResult{
		OurF:            our.F1(),
		CatalogueF:      catalogue.F1(),
		OurRecall:       our.Recall(),
		CatalogueRecall: catalogue.Recall(),
	}
}

// EfficiencyRow reports the §6.4 analysis for one table size.
type EfficiencyRow struct {
	Rows          int
	Queries       int
	QueriesPerRow float64
	// EstSecondsPerRow is the wall-clock estimate per row at the given
	// engine latency (the paper's ~0.5 s/row regime).
	EstSecondsPerRow float64
	// ComputeSeconds is the actual local processing time (no latency).
	ComputeSeconds float64
}

// Efficiency annotates synthetic restaurant tables of the given sizes and
// reports query volume and the estimated per-row cost at the given simulated
// search latency.
func (l *Lab) Efficiency(sizes []int, latency time.Duration) []EfficiencyRow {
	ents := l.World.TableEntities(world.Restaurant)
	cfg := l.config(l.SVM, true, false)
	// The analysis exists to show the paper's full per-row cost regime,
	// so the cross-table cache must not collapse the workload (no-op in
	// the default cache-off configuration).
	cfg.Cache = nil
	var rows []EfficiencyRow
	for _, n := range sizes {
		tbl := table.New("eff",
			table.Column{Header: "Name", Type: table.Text},
			table.Column{Header: "Phone", Type: table.Text},
		)
		for i := 0; i < n; i++ {
			e := ents[i%len(ents)]
			// Suffix duplicated names so the query cache cannot
			// collapse the workload.
			name := e.Name
			if i >= len(ents) {
				name += " " + time.Duration(i).String()
			}
			if err := tbl.AppendRow(name, e.Phone); err != nil {
				panic(err)
			}
		}
		start := time.Now()
		res, err := cfg.Annotate(context.Background(), tbl)
		if err != nil {
			// Unreachable: a background context never cancels.
			panic(err)
		}
		compute := time.Since(start)
		est := float64(res.Queries)*latency.Seconds() + compute.Seconds()
		rows = append(rows, EfficiencyRow{
			Rows:             n,
			Queries:          res.Queries,
			QueriesPerRow:    float64(res.Queries) / float64(n),
			EstSecondsPerRow: est / float64(n),
			ComputeSeconds:   compute.Seconds(),
		})
	}
	return rows
}
