package serve

import (
	"time"

	"phideep/internal/metrics"
)

// ledger is a server's event count: one instance handle per event. Each
// handle backs Stats and adds to its default-registry series while
// metrics.Enabled() holds, so every event is recorded by one statement and
// two servers in one process each see only their own events.
// serve.batch.size counts dispatched batches and sums their requests;
// serve.latency.seconds counts completed requests and sums their latency.
type ledger struct {
	batchSize, latency *metrics.LocalHistogram

	sheds, degrades, adjustments *metrics.LocalCounter

	faultBatches, faultRetries, redispatches *metrics.LocalCounter
	restarts, retired                        *metrics.LocalCounter
	deadlineTimeouts, discarded              *metrics.LocalCounter
}

func newLedger() ledger {
	r := metrics.Default()
	return ledger{
		batchSize: r.Histogram("serve.batch.size", metrics.LinearBuckets(1, 1, 64)...).Local(),
		latency:   r.Histogram("serve.latency.seconds", metrics.ExpBuckets(1e-6, 2, 24)...).Local(),

		sheds:       r.Counter("serve.sheds").Local(),
		degrades:    r.Counter("serve.degrades").Local(),
		adjustments: r.Counter("serve.tune.adjustments").Local(),

		faultBatches:     r.Counter("serve.fault.batches").Local(),
		faultRetries:     r.Counter("serve.fault.retries").Local(),
		redispatches:     r.Counter("serve.fault.redispatches").Local(),
		restarts:         r.Counter("serve.restart.count").Local(),
		retired:          r.Counter("serve.restart.retired").Local(),
		deadlineTimeouts: r.Counter("serve.deadline.timeouts").Local(),
		discarded:        r.Counter("serve.deadline.discarded").Local(),
	}
}

// BatcherStats is a point-in-time snapshot of the micro-batcher, returned
// by Server.Stats.
type BatcherStats struct {
	// Precision names the worker forward path ("f64" or "f32"), so a
	// metrics consumer can attribute the latency series to the numeric
	// width that produced it.
	Precision string
	// Requests counts admitted requests; Completed those already answered
	// by a worker (degraded answers count in Degrades only).
	Requests  int64
	Completed int64
	// Batches counts dispatched batches; FlushFull of them flushed at
	// MaxBatch and FlushDeadline on the MaxWait timer (Close-time flushes
	// count as deadline flushes).
	Batches       int64
	FlushFull     int64
	FlushDeadline int64
	// Sheds and Degrades count full-queue rejections and host-path
	// fallbacks under the respective policies.
	Sheds    int64
	Degrades int64
	// QueueDepth is the current number of admitted, not-yet-dispatched
	// requests.
	QueueDepth int
	// AvgBatchSize is the mean number of requests per dispatched batch.
	AvgBatchSize float64
	// MeanLatencySeconds is the mean enqueue-to-answer latency of
	// completed requests. Percentiles belong to the caller: the phiserve
	// load generator computes p50/p99 from its own samples.
	MeanLatencySeconds float64
	// Adaptive reports whether the online batching controller is on;
	// CurMaxBatch and CurMaxWait are its current effective knobs (equal to
	// the configured MaxBatch/MaxWait when static or untouched), and
	// Adjustments counts the knob changes it has applied.
	Adaptive    bool
	CurMaxBatch int
	CurMaxWait  time.Duration
	Adjustments int64
	// Health is the availability state machine position ("healthy",
	// "degraded", "draining", "down"); WorkersLive of WorkersConfigured
	// worker slots have not retired.
	Health            string
	WorkersLive       int
	WorkersConfigured int
	// FaultBatches counts batches that faulted out of a worker (transfer
	// faults surviving the retry budgets, or recovered panics);
	// FaultRetries the serve-level transfer re-attempts that preceded
	// them; Redispatches the faulted batches salvaged by a healthy
	// replica.
	FaultBatches int64
	FaultRetries int64
	Redispatches int64
	// Restarts counts worker rebuilds on fresh devices; Retired the slots
	// whose restart budget ran out.
	Restarts int64
	Retired  int64
	// DeadlineTimeouts counts requests abandoned at their deadline (or
	// ctx expiry); Discarded the late worker results thrown away for
	// already-abandoned requests.
	DeadlineTimeouts int64
	Discarded        int64
}

// Stats returns a consistent-enough snapshot of the batcher counters (each
// field is read atomically; the set is not a single atomic cut).
func (s *Server) Stats() BatcherStats {
	st := BatcherStats{
		Precision:          s.cfg.Precision.String(),
		Completed:          s.st.latency.Count(),
		Batches:            s.st.batchSize.Count(),
		Sheds:              s.st.sheds.Value(),
		Degrades:           s.st.degrades.Value(),
		AvgBatchSize:       s.st.batchSize.Mean(),
		MeanLatencySeconds: s.st.latency.Mean(),
		Adaptive:           s.cfg.Adaptive,
		Adjustments:        s.st.adjustments.Value(),

		WorkersConfigured: s.cfg.Workers,
		FaultBatches:      s.st.faultBatches.Value(),
		FaultRetries:      s.st.faultRetries.Value(),
		Redispatches:      s.st.redispatches.Value(),
		Restarts:          s.st.restarts.Value(),
		Retired:           s.st.retired.Value(),
		DeadlineTimeouts:  s.st.deadlineTimeouts.Value(),
		Discarded:         s.st.discarded.Value(),
	}
	s.mu.Lock()
	st.Requests = s.requests
	st.FlushFull = s.flushFull
	st.FlushDeadline = s.flushDeadline
	st.QueueDepth = s.queued
	st.CurMaxBatch = s.curBatch
	st.CurMaxWait = s.curWait
	st.WorkersLive = s.live
	st.Health = s.healthLocked().String()
	s.mu.Unlock()
	return st
}
