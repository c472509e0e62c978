package serve

import (
	"testing"
	"time"

	"phideep/internal/autoencoder"
	"phideep/internal/device"
	"phideep/internal/metrics"
)

// TestTwoServersOneLedgerEach: two servers in one process each report only
// their own events in Stats, and every serve.* series they roll up into
// grows by exactly the sum of the two servers' counts.
func TestTwoServersOneLedgerEach(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	before := metrics.Default().Snapshot()

	cfg := aeTestConfig()
	// One server under a seeded transient-fault plan, one adaptive server
	// whose sequential traffic makes the controller adjust.
	faulty, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 1)), Config{
		MaxBatch:    1,
		MaxWait:     time.Hour,
		MaxRestarts: 1 << 20,
		Faults:      device.FaultConfig{Rate: 0.7, Seed: 42, MaxRetries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := New(Autoencoder(cfg, autoencoder.NewParams(cfg, 2)), Config{
		MaxBatch: 4,
		MaxWait:  time.Millisecond,
		Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range randExamples(20, cfg.Visible, 3) {
		faulty.Encode(x) // typed worker faults are part of the plan
	}
	for _, x := range randExamples(2*tuneWindow, cfg.Visible, 4) {
		if _, err := adaptive.Encode(x); err != nil {
			t.Fatal(err)
		}
	}
	faulty.Close()
	adaptive.Close()

	after := metrics.Default().Snapshot()
	a, b := faulty.Stats(), adaptive.Stats()
	if a.Requests != 20 || b.Requests != 2*tuneWindow || b.Completed != 2*tuneWindow {
		t.Fatalf("instance request counts mix servers: %+v / %+v", a, b)
	}
	if a.FaultBatches == 0 || a.Restarts == 0 || b.FaultBatches != 0 || b.Adjustments == 0 || a.Adjustments != 0 {
		t.Fatalf("instance fault/tuning counts mix servers: %+v / %+v", a, b)
	}
	for name, want := range map[string]int64{
		"serve.sheds":              a.Sheds + b.Sheds,
		"serve.degrades":           a.Degrades + b.Degrades,
		"serve.tune.adjustments":   a.Adjustments + b.Adjustments,
		"serve.fault.batches":      a.FaultBatches + b.FaultBatches,
		"serve.fault.retries":      a.FaultRetries + b.FaultRetries,
		"serve.fault.redispatches": a.Redispatches + b.Redispatches,
		"serve.restart.count":      a.Restarts + b.Restarts,
		"serve.restart.retired":    a.Retired + b.Retired,
		"serve.deadline.timeouts":  a.DeadlineTimeouts + b.DeadlineTimeouts,
		"serve.deadline.discarded": a.Discarded + b.Discarded,
	} {
		if got := after.Counters[name] - before.Counters[name]; got != want {
			t.Errorf("%s grew by %d, want %d", name, got, want)
		}
	}
	bs := after.Histograms["serve.batch.size"]
	bs0 := before.Histograms["serve.batch.size"]
	if got := bs.Count - bs0.Count; got != a.Batches+b.Batches {
		t.Errorf("serve.batch.size count grew by %d, want %d batches", got, a.Batches+b.Batches)
	}
	if got := bs.Sum - bs0.Sum; got != float64(a.Requests+b.Requests) {
		t.Errorf("serve.batch.size sum grew by %g, want %d dispatched requests", got, a.Requests+b.Requests)
	}
	lat, lat0 := after.Histograms["serve.latency.seconds"], before.Histograms["serve.latency.seconds"]
	if got := lat.Count - lat0.Count; got != a.Completed+b.Completed {
		t.Errorf("serve.latency.seconds count grew by %d, want %d completions", got, a.Completed+b.Completed)
	}
}
