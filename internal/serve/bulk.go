package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"phideep/internal/feed"
	"phideep/internal/metrics"
	"phideep/internal/tensor"
)

// Bulk-scoring metric handles. Registry-only: BulkResult already carries
// the per-sweep counts, so these record only while collection is enabled.
var (
	mBulkChunks = metrics.Default().Counter("serve.bulk.chunks")
	mBulkRows   = metrics.Default().Counter("serve.bulk.rows")
	mBulkFailed = metrics.Default().Counter("serve.bulk.failed")
)

func recordBulkChunk(rows, failed int) {
	if !metrics.Enabled() {
		return
	}
	mBulkChunks.Inc()
	mBulkRows.Add(int64(rows))
	mBulkFailed.Add(int64(failed))
}

// BulkResult summarizes one ScoreFeed sweep.
type BulkResult struct {
	// Chunks is the number of leases scored; Rows the examples answered.
	Chunks int `json:"chunks"`
	Rows   int `json:"rows"`
	// Failed counts rows whose serving call errored (worker faults, the
	// Shed policy, expired deadlines). A chunk that loses every row is
	// committed with the feed's skipped flag, like a dropped training
	// chunk.
	Failed int `json:"failed"`
	// Correct and Labeled carry the free accuracy sweep: when the feed
	// serves labels and op is OpPredict, Correct counts rows whose argmax
	// matched the label.
	Correct int  `json:"correct"`
	Labeled bool `json:"labeled"`
	// Seconds is the wall-clock duration of the sweep.
	Seconds float64 `json:"seconds"`
}

// ScoreFeed is the feed-backed bulk-scoring path: the server becomes one
// consumer of a dataset feed and scores its shard chunk by chunk through
// the same admission queue, micro-batcher, and fault-tolerant workers as
// online traffic. Each leased chunk's rows are submitted concurrently (the
// batcher coalesces them into full batches, which is where the many-core
// throughput comes from), the lease commits when its rows settle, and out —
// when non-nil — receives each answered row in chunk order as (example
// index into the source, scores). The scores slice is owned by the
// callback.
//
// Row-level failures are counted and skipped, not fatal: a bulk sweep over
// a degraded server completes with Failed > 0 the same way a training run
// survives dropped chunks. Server-level failure (Close, every worker
// retired) aborts the sweep with the partial result. The sweep ends at the
// feed's TotalChunks horizon, or after one full pass over the consumer's
// shard when the feed is unbounded.
func (s *Server) ScoreFeed(op Op, fc *feed.Consumer, out func(example int, scores []float64)) (*BulkResult, error) {
	return s.ScoreFeedContext(context.Background(), op, fc, out)
}

// ScoreFeedContext is ScoreFeed honoring ctx: cancellation stops leasing
// new chunks and fails the in-flight rows, returning the partial result.
func (s *Server) ScoreFeedContext(ctx context.Context, op Op, fc *feed.Consumer, out func(example int, scores []float64)) (*BulkResult, error) {
	if fc == nil {
		return nil, errors.New("serve: nil feed consumer")
	}
	if !s.model.supports(op) {
		return nil, &UnsupportedOpError{Kind: s.model.Kind(), Op: op}
	}
	if d := fc.Dim(); d != s.model.InputDim() {
		return nil, fmt.Errorf("serve: feed serves %d-wide examples, model wants %d", d, s.model.InputDim())
	}
	plan := fc.Plan()
	// An unbounded feed would loop the source forever; stop the sweep after
	// one full pass over this consumer's shard.
	limit := fc.Pos() + plan.Chunks(plan.SourceLen/plan.Batch)
	stage := tensor.NewMatrix(plan.ChunkExamples, fc.Dim())
	scoreLabels := fc.Labeled() && op == OpPredict

	res := &BulkResult{Labeled: scoreLabels}
	start := time.Now()
	defer func() { res.Seconds = time.Since(start).Seconds() }()
	for fc.Pos() < limit {
		l, err := fc.Lease()
		if errors.Is(err, feed.ErrExhausted) {
			break
		}
		if err != nil {
			return res, fmt.Errorf("serve: bulk lease: %w", err)
		}
		if err := fc.Fill(l, stage); err != nil {
			// Unreachable after the geometry checks above; surface it
			// rather than silently committing garbage.
			fc.Commit(l, time.Since(start).Seconds(), true)
			return res, fmt.Errorf("serve: bulk fill: %w", err)
		}
		var labels []int
		if scoreLabels {
			if labels, err = fc.Labels(l); err != nil {
				fc.Commit(l, time.Since(start).Seconds(), true)
				return res, fmt.Errorf("serve: bulk labels: %w", err)
			}
		}

		// Submit the chunk's rows concurrently and let the micro-batcher
		// coalesce them; doCtx copies each row at admission, so the shared
		// staging matrix is safe to refill next lease.
		outs := make([][]float64, l.N)
		errs := make([]error, l.N)
		var wg sync.WaitGroup
		for i := 0; i < l.N; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i], errs[i] = s.doCtx(ctx, op, stage.RowView(i))
			}(i)
		}
		wg.Wait()

		failed, fatal := 0, error(nil)
		for i := 0; i < l.N; i++ {
			if errs[i] != nil {
				failed++
				if errors.Is(errs[i], ErrClosed) || errors.Is(errs[i], ErrDown) {
					fatal = errs[i]
				}
				continue
			}
			res.Rows++
			if scoreLabels && argmax(outs[i]) == labels[i] {
				res.Correct++
			}
			if out != nil {
				out((l.Start+i)%plan.SourceLen, outs[i])
			}
		}
		res.Chunks++
		res.Failed += failed
		recordBulkChunk(l.N-failed, failed)
		fc.Commit(l, time.Since(start).Seconds(), failed == l.N)
		if fatal != nil {
			return res, fmt.Errorf("serve: bulk sweep aborted: %w", fatal)
		}
		if ctx.Err() != nil {
			return res, ctxErr(ctx)
		}
	}
	return res, nil
}

// argmax returns the index of the largest score (first on ties).
func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
