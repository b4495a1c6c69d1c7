package search

import (
	"context"
	"sync"
	"time"
)

// Engine wraps the index behind the query interface the annotator uses and
// counts the queries it answers: the dominant cost the paper measures in §6.4
// is the latency of talking to a remote search API, so the analysis
// multiplies query counts by a latency. A positive Latency makes each query
// actually block for it, to model a remote engine under load.
//
// Concurrency: every query and counter method is safe for concurrent use —
// accounting is mutex-protected and the index is immutable. Latency is
// configuration, not synchronised; set it before sharing the engine across
// goroutines.
type Engine struct {
	index *ShardedIndex

	// Latency is the simulated round-trip time per query, which Search
	// actually blocks for. The paper observes ~0.5 s per processed row
	// dominated by this cost. A batch of n queries blocks n×Latency: the
	// engine models per-query round-trip cost, and batching amortizes our
	// CPU setup, not the simulated network.
	Latency time.Duration

	mu             sync.Mutex
	queries        int
	batches        int
	batchedQueries int
}

// Stats is a point-in-time snapshot of the engine's serving counters.
type Stats struct {
	// Queries is the total number of queries issued (batched queries
	// count individually).
	Queries int
	// Batches and BatchedQueries describe SearchBatchContext usage: the
	// number of batch calls and the queries they carried; their ratio is
	// the average batch size.
	Batches        int
	BatchedQueries int
	// Shards is the shard count of the underlying index.
	Shards int
}

// NewShardedEngine builds an engine over a frozen or loaded index. Results are
// byte-identical at every shard count; only the intra-query parallelism
// differs.
func NewShardedEngine(six *ShardedIndex) *Engine {
	return &Engine{index: six}
}

// ShardedIndex returns the index behind the engine. Snapshot building
// persists the serving index through it.
func (e *Engine) ShardedIndex() *ShardedIndex { return e.index }

// Search returns the top-k results for query and counts it.
func (e *Engine) Search(query string, k int) []Result {
	e.account(1, false)
	_ = e.sleepCtx(context.Background(), 1) // Background is never done
	return e.index.Search(query, k)
}

// SearchBatchContext resolves a batch of queries in one call; out[i] is
// exactly Search(queries[i], k). Accounting matches issuing each query
// separately — the batch amortizes per-query CPU setup and fans the whole
// batch out to the shards in one parallel pass. Cancellation is checked
// before the batch is issued and (when Latency is set) during the simulated
// round-trips, which abort mid-sleep; the queries are counted once issued,
// even if the caller abandons them.
func (e *Engine) SearchBatchContext(ctx context.Context, queries []string, k int) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.account(len(queries), true)
	if err := e.sleepCtx(ctx, len(queries)); err != nil {
		return nil, err
	}
	return e.index.SearchBatch(queries, k), nil
}

// account records n issued queries (as one batch when batch is set).
func (e *Engine) account(n int, batch bool) {
	e.mu.Lock()
	e.queries += n
	if batch {
		e.batches++
		e.batchedQueries += n
	}
	e.mu.Unlock()
}

// sleepCtx blocks for n simulated round-trips, or returns ctx.Err() as soon
// as ctx is done, abandoning the rest of the simulated round-trip time.
func (e *Engine) sleepCtx(ctx context.Context, n int) error {
	if e.Latency <= 0 {
		return nil
	}
	t := time.NewTimer(time.Duration(n) * e.Latency)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the serving counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Queries:        e.queries,
		Batches:        e.batches,
		BatchedQueries: e.batchedQueries,
		Shards:         e.index.NumShards(),
	}
}

// ResetCounters zeroes the query accounting, so serving-time statistics do
// not carry construction-time (classifier training) queries.
func (e *Engine) ResetCounters() {
	e.mu.Lock()
	e.queries = 0
	e.batches = 0
	e.batchedQueries = 0
	e.mu.Unlock()
}

// IndexSize returns the number of documents behind the engine.
func (e *Engine) IndexSize() int { return e.index.Len() }
