package serve

import (
	"sort"
	"sync"
	"testing"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/metrics"
)

// tunerState snapshots the controller's observable configuration.
type tunerState struct {
	batch       int
	wait        time.Duration
	adjustments int64
}

func snapshot(a *autotuner) tunerState {
	return tunerState{batch: a.batch, wait: a.wait, adjustments: a.adjustments}
}

// flushEvent is one synthetic flush observation for driving the controller
// directly.
type flushEvent struct {
	full   bool
	size   int
	queued int
	sheds  int64
}

// TestAutotunerDeterminism: the controller is a pure function of its flush
// trace — two instances fed the identical trace must walk through the
// identical configuration sequence, step by step.
func TestAutotunerDeterminism(t *testing.T) {
	trace := make([]flushEvent, 0, 128)
	// A deliberately messy trace: deadline-dominated, then full-flushing
	// with backlog, then sheds, then deadline-dominated again.
	for i := 0; i < 32; i++ {
		trace = append(trace, flushEvent{full: i%8 == 0, size: 5 + i%3, queued: 6})
	}
	for i := 0; i < 32; i++ {
		trace = append(trace, flushEvent{full: true, size: 8, queued: 40})
	}
	for i := 0; i < 32; i++ {
		trace = append(trace, flushEvent{full: true, size: 16, queued: 60, sheds: int64(i)})
	}
	for i := 0; i < 32; i++ {
		trace = append(trace, flushEvent{full: false, size: 3, queued: 3, sheds: 32})
	}

	a := newAutotuner(16, 10*time.Millisecond)
	b := newAutotuner(16, 10*time.Millisecond)
	for i, ev := range trace {
		ca := a.observe(ev.full, ev.size, ev.queued, ev.sheds)
		cb := b.observe(ev.full, ev.size, ev.queued, ev.sheds)
		if ca != cb || snapshot(a) != snapshot(b) {
			t.Fatalf("diverged at event %d: %+v vs %+v", i, snapshot(a), snapshot(b))
		}
	}
	if a.adjustments == 0 {
		t.Fatal("trace produced no adjustments — the test exercised nothing")
	}
}

// TestAutotunerShrinksOnDeadlineDominance: a deadline-dominated flush
// stream at batch sizes below the limit must pull the flush size down to
// the observed mean — and hold there without oscillating back up.
func TestAutotunerShrinksOnDeadlineDominance(t *testing.T) {
	a := newAutotuner(16, 10*time.Millisecond)
	for i := 0; i < 2*tuneWindow; i++ {
		a.observe(false, 8, 8, 0)
	}
	if a.batch != 8 {
		t.Fatalf("batch %d after deadline-dominated windows, want 8", a.batch)
	}
	// Now the batcher full-flushes at the new size; the controller must not
	// grow the batch back (queue never reaches twice the flush size).
	for i := 0; i < 8*tuneWindow; i++ {
		a.observe(true, 8, 8, 0)
	}
	if a.batch != 8 {
		t.Fatalf("batch drifted to %d under steady full flushes, want 8", a.batch)
	}
	if a.wait != 10*time.Millisecond {
		t.Fatalf("wait drifted to %v with the timer idle at the ceiling", a.wait)
	}
}

// TestAutotunerRespondsToOverloadAndSparseTraffic: sheds grow the batch
// back toward the ceiling; sparse traffic that cannot even fill the
// shrunken batch cuts the deadline instead, bounded by the floor.
func TestAutotunerRespondsToOverloadAndSparseTraffic(t *testing.T) {
	a := newAutotuner(16, 10*time.Millisecond)
	for i := 0; i < 2*tuneWindow; i++ {
		a.observe(false, 4, 4, 0)
	}
	if a.batch != 4 {
		t.Fatalf("batch %d, want 4", a.batch)
	}
	// Overload: cumulative shed count rising. Each decision window doubles
	// the batch (with a cooldown window in between) until the ceiling.
	sheds := int64(0)
	for i := 0; i < 8*tuneWindow; i++ {
		sheds++
		a.observe(true, a.batch, 3*a.batch, sheds)
	}
	if a.batch != 16 {
		t.Fatalf("batch %d under sustained sheds, want back at the ceiling 16", a.batch)
	}
	// Sparse traffic: single-request deadline flushes with the batch
	// already at 1 can only shrink the wait, down to its floor.
	b := newAutotuner(16, 10*time.Millisecond)
	for i := 0; i < 20*tuneWindow; i++ {
		b.observe(false, 1, 1, 0)
	}
	if b.batch != 1 {
		t.Fatalf("batch %d under sparse traffic, want 1", b.batch)
	}
	if b.wait >= 10*time.Millisecond || b.wait < b.minWait {
		t.Fatalf("wait %v not cut toward the floor %v", b.wait, b.minWait)
	}
}

// runClosedLoop drives srv with `clients` closed-loop Encode clients for
// `dur` and returns the p99 latency over the samples completed after
// `warmup` (the controller needs a few windows to converge; the static
// servers just discard the same prefix for fairness).
func runClosedLoop(t *testing.T, srv *Server, clients int, dur, warmup time.Duration) time.Duration {
	t.Helper()
	dim := srv.Model().InputDim()
	start := time.Now()
	deadline := start.Add(dur)
	cutoff := start.Add(warmup)
	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := make([]float64, dim)
			x[i%dim] = 1
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if _, err := srv.Encode(x); err != nil {
					t.Errorf("Encode: %v", err)
					return
				}
				if done := time.Now(); done.After(cutoff) {
					lats[i] = append(lats[i], done.Sub(t0))
				}
			}
		}(i)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		t.Fatal("no samples after warmup")
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	i := (len(all)*99 + 99) / 100
	if i < 1 {
		i = 1
	}
	return all[i-1]
}

// TestAdaptiveErasesDeadlineCliff is the loadgen regression for the
// EXPERIMENTS.md regime cliff: with client concurrency below MaxBatch a
// static batcher parks every batch on the MaxWait timer (p99 ≈ the
// deadline), while at concurrency == MaxBatch batches dispatch instantly.
// The adaptive controller must erase the slow side of the cliff: its p99
// under the misconfigured window must land within ~2× of the well-sized
// static config (plus timer-granularity slack), not at the deadline.
func TestAdaptiveErasesDeadlineCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second closed-loop load test")
	}
	const (
		clients  = 8
		maxBatch = 16 // cliff: clients < MaxBatch
		maxWait  = 20 * time.Millisecond
		dur      = 1500 * time.Millisecond
		warmup   = 500 * time.Millisecond
	)
	cfg := aeTestConfig()
	build := func(c Config) *Server {
		t.Helper()
		srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), c)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	static := build(Config{MaxBatch: maxBatch, MaxWait: maxWait, Workers: 2})
	staticP99 := runClosedLoop(t, static, clients, dur, warmup)
	static.Close()

	// Reference: the pre-cliff configuration a manual tuner would pick —
	// the same load with the window sized to the concurrency.
	ref := build(Config{MaxBatch: clients, MaxWait: maxWait, Workers: 2})
	refP99 := runClosedLoop(t, ref, clients, dur, warmup)
	ref.Close()

	adaptive := build(Config{MaxBatch: maxBatch, MaxWait: maxWait, Workers: 2, Adaptive: true})
	adaptiveP99 := runClosedLoop(t, adaptive, clients, dur, warmup)
	st := adaptive.Stats()
	adaptive.Close()

	t.Logf("p99: static=%v adaptive=%v reference=%v; controller: batch %d→%d, %d adjustments",
		staticP99, adaptiveP99, refP99, maxBatch, st.CurMaxBatch, st.Adjustments)

	if !st.Adaptive || st.Adjustments == 0 || st.CurMaxBatch >= maxBatch {
		t.Fatalf("controller never engaged: %+v", st)
	}
	// The static misconfiguration parks batches on the deadline timer.
	if staticP99 < maxWait {
		t.Fatalf("static p99 %v below the %v deadline — the cliff this test needs did not appear", staticP99, maxWait)
	}
	// Cliff erased: an order-of-magnitude better than the static config...
	if adaptiveP99 > staticP99/4 {
		t.Fatalf("adaptive p99 %v not clearly better than static %v", adaptiveP99, staticP99)
	}
	// ...and within ~2× of the hand-tuned pre-cliff config (2 ms of slack
	// absorbs OS timer granularity on the short side).
	if adaptiveP99 > 2*refP99+2*time.Millisecond {
		t.Fatalf("adaptive p99 %v not within ~2x of the hand-tuned %v", adaptiveP99, refP99)
	}
}

// TestAdaptiveStatsAndMetrics: the adaptive knobs are visible in
// BatcherStats, and the adjustment count rolls up into the
// serve.tune.adjustments registry series.
func TestAdaptiveStatsAndMetrics(t *testing.T) {
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(false)
	metrics.Default().Reset()
	cfg := aeTestConfig()
	srv, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		MaxBatch: 4,
		MaxWait:  time.Millisecond,
		Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st := srv.Stats()
	if !st.Adaptive || st.CurMaxBatch != 4 || st.CurMaxWait != time.Millisecond {
		t.Fatalf("initial adaptive stats wrong: %+v", st)
	}
	// Sequential requests flush one at a time on the deadline; after a
	// decision window the controller shrinks the batch.
	for _, x := range randExamples(2*tuneWindow, cfg.Visible, 5) {
		if _, err := srv.Encode(x); err != nil {
			t.Fatal(err)
		}
	}
	st = srv.Stats()
	if st.Adjustments == 0 || st.CurMaxBatch >= 4 {
		t.Fatalf("controller did not adjust under sequential traffic: %+v", st)
	}

	// A static server reports its fixed knobs with zero adjustments.
	stat, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer stat.Close()
	if st := stat.Stats(); st.Adaptive || st.CurMaxBatch != 8 || st.Adjustments != 0 {
		t.Fatalf("static server stats wrong: %+v", st)
	}
	if got := metrics.Default().Snapshot().Counters["serve.tune.adjustments"]; got != srv.Stats().Adjustments {
		t.Fatalf("serve.tune.adjustments = %d, want %d", got, srv.Stats().Adjustments)
	}
}
