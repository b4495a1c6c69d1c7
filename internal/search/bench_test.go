package search

// Micro-benchmarks for the query core, run over a synthetic corpus large
// enough that accumulator, heap and snippet-anchoring costs dominate.
// BenchmarkIndexAdd's docs/s is the quantity BENCH_search.json's frozen
// index_docs_per_sec history recorded over the full canonical corpus.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func benchCorpus(n int) []Document {
	rng := rand.New(rand.NewSource(7))
	vocab := []string{
		"museum", "restaurant", "gallery", "painting", "collection", "chef",
		"seasonal", "menu", "hotel", "suites", "lobby", "grand", "national",
		"the", "of", "and", "in", "with", "jazz-club", "martin", "chez",
	}
	docs := make([]Document, n)
	for i := range docs {
		words := make([]string, 60)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = Document{
			URL:   fmt.Sprintf("u%d", i),
			Title: vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))],
			Body:  strings.Join(words, " "),
		}
	}
	return docs
}

// augmentedCorpus is benchCorpus's sibling for the query the pipeline sends
// (§5.2.2: a cell's content plus its city): every document is a two-word name
// nobody shares, one of five type words (a fifth of the corpus each, so they
// cross bigTermDF from 5 120 documents a shard), one of sixty cities (medium:
// a sixtieth each) and filler. augmentedQueries asks for its first documents
// as "<rare> <big> <rare> <medium>".
func augmentedCorpus(n int) []Document {
	rng := rand.New(rand.NewSource(11))
	filler := strings.Fields("fine dining seasonal menu lobby suites collection painting sculpture " +
		"harbor garden terrace historic modern family visitors opening hours tickets rooms")
	docs := make([]Document, n)
	for i := range docs {
		first, second, kind, city := augmentedWords(i)
		words := []string{first, second, kind, "in", city}
		for j := 0; j < 20; j++ {
			words = append(words, filler[rng.Intn(len(filler))])
		}
		docs[i] = Document{URL: fmt.Sprintf("a%d", i), Title: first + " " + second, Body: strings.Join(words, " ")}
	}
	return docs
}

// augmentedWords spells document i's name, type and city. Names are digits
// written as syllables, so no two documents share one and the stemmer has
// nothing to strip.
func augmentedWords(i int) (first, second, kind, city string) {
	syllables := []string{"ka", "vo", "mi", "zu", "re", "lo", "ti", "da", "bo", "ne"}
	spell := func(prefix string, v int) string {
		for ; v > 0; v /= 10 {
			prefix += syllables[v%10]
		}
		return prefix + "x"
	}
	kinds := []string{"restaurant", "hotel", "museum", "street", "gallery"}
	return spell("qa", i+1), spell("qo", i+1), kinds[i%len(kinds)], spell("ci", i%60+1)
}

func augmentedQueries(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		first, second, kind, city := augmentedWords(i)
		qs[i] = first + " " + kind + " " + second + " " + city
	}
	return qs
}

func benchIndex(b *testing.B, n int) *ShardedIndex {
	b.Helper()
	return buildSharded(benchCorpus(n), 1)
}

// BenchmarkIndexAdd measures indexing throughput: Build over one and two
// shards, each shard indexing its documents as they arrive on the build's
// pool, reported in documents per second, with allocations per build.
func BenchmarkIndexAdd(b *testing.B) {
	docs := benchCorpus(2000)
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSharded(docs, shards)
			}
			b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// BenchmarkSearchTerm measures plain BM25 top-k over the dense accumulator
// and bounded heap.
func BenchmarkSearchTerm(b *testing.B) {
	ix := benchIndex(b, 5000)
	queries := []string{"museum gallery", "grand hotel suites", "chef seasonal menu", "martin"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(queries[i%len(queries)], 10)
	}
}

// BenchmarkSearchAugmented measures the shape the pipeline sends, a batch of 32
// "<rare> <big> <rare> <medium>" queries: the long type column sits in the
// middle of the name, where only deferral keeps it from being walked.
func BenchmarkSearchAugmented(b *testing.B) {
	ix := buildSharded(augmentedCorpus(6000), 1)
	if ix.shards[0].col.dense[ix.termID("restaur")] == nil {
		b.Fatal("'restaurant' did not cross bigTermDF")
	}
	queries := augmentedQueries(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchBatch(queries, 10)
	}
}

// BenchmarkSnippet isolates snippet generation from precomputed stems: the
// anchor's scan of the term-id column and the window.
func BenchmarkSnippet(b *testing.B) {
	six := benchIndex(b, 100)
	ix := six.shards[0]
	want := []int32{six.termID("museum"), six.termID("galleri")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := i % len(ix.docs)
		ix.snippetAt(doc, ix.terms.anchor(ix.base[doc], ix.base[doc+1], want))
	}
}
