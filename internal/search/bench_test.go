package search

// Micro-benchmarks for the query core, run over a synthetic corpus large
// enough that accumulator, heap and positional-intersection costs dominate.
// cmd/benchsearch measures the same operations over the full canonical
// corpus and records the trajectory in BENCH_search.json.

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

func benchIndex(b *testing.B, n int) *ShardedIndex {
	b.Helper()
	return buildSharded(benchCorpus(n), 1)
}

// BenchmarkIndexAdd measures indexing throughput: Add into a one-shard
// builder (positional posting construction included) plus the Freeze.
func BenchmarkIndexAdd(b *testing.B) {
	docs := benchCorpus(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSharded(docs, 1)
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

// BenchmarkSearchPhrase measures phrase queries — candidate scoring plus
// positional verification.
func BenchmarkSearchPhrase(b *testing.B) {
	ix := benchIndex(b, 5000)
	queries := []string{
		`"grand hotel" suites`,
		`"chez martin" restaurant`,
		`"national collection"`,
		`"seasonal menu" chef`,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchPhrase(queries[i%len(queries)], 10)
	}
}

// BenchmarkSnippet isolates snippet generation from precomputed stems.
func BenchmarkSnippet(b *testing.B) {
	ix := benchIndex(b, 100).shards[0]
	qterms := []string{"museum", "galleri"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.snippet(i%len(ix.docs), qterms)
	}
}
