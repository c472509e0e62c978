package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"phideep"
	"phideep/internal/metrics"
)

// maxSpans bounds the recorder's memory; spans past it are counted in
// dropped and left out of the self-time summary.
const maxSpans = 1 << 20

// span is one timed call the benchmark made into the program. Parent is
// the ID of the span that caused it (0 for a root); spans of one serving
// request are a single root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. begin/end are safe for
// concurrent use. cur is the open span that wrapped calls on the driving
// goroutine nest under; only that goroutine touches it.
type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	cur     int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its ID; a nil recorder
// records nothing and returns 0.
func (r *recorder) begin(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	r.spans = append(r.spans, span{ID: int64(len(r.spans)) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return int64(len(r.spans))
}

// end closes span id (a no-op for id 0).
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// enter opens a span nested under the current one and makes it current;
// leave restores the previous current span. Both run on the driving
// goroutine only.
func (r *recorder) enter(name string) (id, prev int64) {
	if r == nil {
		return 0, 0
	}
	prev = r.cur
	id = r.begin(name, prev)
	r.cur = id
	return id, prev
}

func (r *recorder) leave(id, prev int64) {
	if r == nil {
		return
	}
	r.end(id)
	r.cur = prev
}

// layerTime is one span name's call count, total duration and self time
// (duration minus the part covered by its children).
type layerTime struct {
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summary aggregates the closed spans by name. Children of one parent run
// on the parent's goroutine one after another, so their durations add up
// to the covered part of the parent.
func (r *recorder) summary() map[string]layerTime {
	child := make([]float64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.End >= 0 && s.Parent > 0 {
			child[s.Parent] += float64(s.End - s.Start)
		}
	}
	out := map[string]layerTime{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		d := float64(s.End - s.Start)
		lt := out[s.Name]
		lt.Calls++
		lt.TotalS += d / 1e9
		lt.SelfS += (d - child[s.ID]) / 1e9
		out[s.Name] = lt
	}
	return out
}

// writeFile writes the spans and the per-name self-time summary as JSON.
func (r *recorder) writeFile(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string               `json:"workload"`
		Dropped  int                  `json:"dropped"`
		Layers   map[string]layerTime `json:"layers"`
		Spans    []span               `json:"spans"`
	}{workload, r.dropped, r.summary(), r.spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// Span names, one per wrapped public call.
const (
	spanRun         = "core.Trainer.Run"
	spanChunk       = "data.Source.Chunk"
	spanLabel       = "data.Labeled.Label"
	spanClusterStep = "cluster.Cluster.Step"
)

// tracedSource wraps a data source: when tracing, every Chunk/Label call
// is a span of the data layer.
type tracedSource struct {
	phideep.Labeled
	rec *recorder
}

func (s tracedSource) Chunk(start, n int, dst *phideep.Matrix) {
	id, prev := s.rec.enter(spanChunk)
	s.Labeled.Chunk(start, n, dst)
	s.rec.leave(id, prev)
}

func (s tracedSource) Label(idx int) int {
	id, prev := s.rec.enter(spanLabel)
	l := s.Labeled.Label(idx)
	s.rec.leave(id, prev)
	return l
}

// unlabeled adapts a plain Source to the wrapper (its Label is never
// called: the trainer and the feed read labels only from labeled feeds).
type unlabeled struct{ phideep.Source }

func (unlabeled) Label(int) int { panic("perfbench: Label on an unlabeled source") }

// stepTimer wraps a trainable model: every Step is timed into the
// workload's latency samples (always) and into the model's span (when
// tracing).
type stepTimer struct {
	phideep.Trainable
	name string
	rec  *recorder
	lat  *[]float64
}

func (m stepTimer) Step(x *phideep.Buffer, lr float64) float64 {
	id, prev := m.rec.enter(m.name)
	t := time.Now()
	loss := m.Trainable.Step(x, lr)
	*m.lat = append(*m.lat, since(t)*1e3)
	m.rec.leave(id, prev)
	return loss
}

// labeledStepTimer is stepTimer for supervised models.
type labeledStepTimer struct {
	phideep.LabeledTrainable
	name string
	rec  *recorder
	lat  *[]float64
}

func (m labeledStepTimer) StepLabeled(x, y *phideep.Buffer, lr float64) float64 {
	id, prev := m.rec.enter(m.name)
	t := time.Now()
	loss := m.LabeledTrainable.StepLabeled(x, y, lr)
	*m.lat = append(*m.lat, since(t)*1e3)
	m.rec.leave(id, prev)
	return loss
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. README.md
// maps each to the end-to-end metric and workload it should move.
var perLayer = []metricSpec{
	{"kernels.gemm_s", "s"},
	{"kernels.gemm.gflops", "GFLOP/s"},
	{"kernels.gemm.calls", "count"},
	{"kernels.gemm32_s", "s"},
	{"kernels.gemm32.gflops", "GFLOP/s"},
	{"kernels.pack.reuse_ratio", "ratio"},
	{"kernels.conv.im2col_s", "s"},
	{"kernels.conv.pool_s", "s"},
	{"parallel.regions", "count"},
	{"parallel.region_s", "s"},
	{"parallel.items_per_region", "count"},
	{"device.launches", "count"},
	{"device.launch_overhead_us", "us"},
	{"device.sim.compute_s", "s"},
	{"device.sim.transfer_s", "s"},
	{"device.bytes_moved", "B"},
	{"device.transfer.retries", "count"},
	{"data.chunk_s", "s"},
	{"feed.leases", "count"},
	{"feed.stalls", "count"},
	{"feed.seeks", "count"},
	{"feed.max_outstanding", "count"},
	{"core.run_s", "s"},
	{"core.self_s", "s"},
	{"core.chunks", "count"},
	{"autoencoder.step_s", "s"},
	{"autoencoder.steps", "count"},
	{"rbm.step_s", "s"},
	{"rbm.steps", "count"},
	{"convnet.step_s", "s"},
	{"convnet.steps", "count"},
	{"convnet.examples_per_s", "1/s"},
	{"serve.low.ae.avg_batch", "count"},
	{"serve.low.ae.flush_full_share", "ratio"},
	{"serve.low.ae.server_mean_ms", "ms"},
	{"serve.low.ae.client_overhead_ms", "ms"},
	{"serve.low.convnet.avg_batch", "count"},
	{"serve.low.convnet.flush_full_share", "ratio"},
	{"serve.low.convnet.server_mean_ms", "ms"},
	{"serve.low.convnet.client_overhead_ms", "ms"},
	{"serve.high.ae.avg_batch", "count"},
	{"serve.high.ae.flush_full_share", "ratio"},
	{"serve.high.ae.server_mean_ms", "ms"},
	{"serve.high.ae.client_overhead_ms", "ms"},
	{"serve.high.convnet.avg_batch", "count"},
	{"serve.high.convnet.flush_full_share", "ratio"},
	{"serve.high.convnet.server_mean_ms", "ms"},
	{"serve.high.convnet.client_overhead_ms", "ms"},
	{"loadgen.low.sent", "count"},
	{"loadgen.low.failed", "count"},
	{"loadgen.low.max_lag_ms", "ms"},
	{"loadgen.low.p50_ms", "ms"},
	{"loadgen.low.p90_ms", "ms"},
	{"loadgen.low.p99_ms", "ms"},
	{"loadgen.high.sent", "count"},
	{"loadgen.high.failed", "count"},
	{"loadgen.high.max_lag_ms", "ms"},
	{"loadgen.high.p50_ms", "ms"},
	{"loadgen.high.p90_ms", "ms"},
	{"loadgen.high.p99_ms", "ms"},
	{"cluster.step_s", "s"},
	{"cluster.checkpoints", "count"},
	{"cluster.rejoins", "count"},
	{"cluster.down_sim_s", "s"},
	{"cluster.stall_sim_s", "s"},
	{"trace.overhead.setup_s", "ratio"},
	{"trace.overhead.peak_rss_mb", "ratio"},
	{"trace.overhead.examples_per_s", "ratio"},
	{"trace.overhead.sim_s", "ratio"},
	{"trace.overhead.p50_ms", "ratio"},
}

// layerMetrics derives the per-layer metrics from the metrics registry
// snapshot of the traced half, the recorded spans, and the figures the
// workload measured itself (own).
func layerMetrics(s metrics.Snapshot, rec *recorder, own map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range own {
		m[k] = v
	}
	hs := func(name string) float64 { return s.Histograms[name].Sum }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["kernels.gemm_s"] = hs("kernels.gemm.seconds")
	m["kernels.gemm.gflops"] = ratio(s.Floats["kernels.gemm.flops"], hs("kernels.gemm.seconds")) / 1e9
	m["kernels.gemm.calls"] = float64(s.Counters["kernels.gemm.calls"])
	m["kernels.gemm32_s"] = hs("kernels.gemm32.seconds")
	m["kernels.gemm32.gflops"] = ratio(s.Floats["kernels.gemm32.flops"], hs("kernels.gemm32.seconds")) / 1e9
	reuse, grow := float64(s.Counters["kernels.pack.arena.reuse"]), float64(s.Counters["kernels.pack.arena.grow"])
	m["kernels.pack.reuse_ratio"] = ratio(reuse, reuse+grow)
	m["kernels.conv.im2col_s"] = hs("kernels.conv.im2col.seconds")
	m["kernels.conv.pool_s"] = hs("kernels.conv.pool.seconds")

	regions := float64(s.Counters["parallel.regions"])
	m["parallel.regions"] = regions
	m["parallel.region_s"] = hs("parallel.region.seconds")
	m["parallel.items_per_region"] = ratio(float64(s.Counters["parallel.region.items"]), regions)

	// The timed kernels launched through the device; f32 serving GEMMs run
	// on the host, outside it.
	launches := float64(s.Counters["device.kernel.launches"])
	kernelS := hs("kernels.gemm.seconds") + hs("kernels.conv.im2col.seconds") + hs("kernels.conv.pool.seconds")
	m["device.launches"] = launches
	m["device.launch_overhead_us"] = ratio(s.Floats["device.wall.compute_seconds"]-kernelS, launches) * 1e6
	m["device.sim.compute_s"] = s.Floats["device.sim.compute_seconds"]
	m["device.sim.transfer_s"] = s.Floats["device.sim.transfer_seconds"]
	m["device.bytes_moved"] = float64(s.Counters["device.bytes_moved"])
	m["device.transfer.retries"] = float64(s.Counters["device.transfer.retries"])

	m["feed.leases"] = float64(s.Counters["feed.leases"])
	m["feed.stalls"] = float64(s.Counters["feed.stalls"])
	m["feed.seeks"] = float64(s.Counters["feed.seeks"])
	m["core.chunks"] = float64(s.Counters["trainer.chunks"])

	layers := rec.summary()
	m["data.chunk_s"] = layers[spanChunk].TotalS + layers[spanLabel].TotalS
	m["core.run_s"] = layers[spanRun].TotalS
	m["core.self_s"] = layers[spanRun].SelfS
	for _, model := range []string{"autoencoder", "rbm", "convnet"} {
		m[model+".step_s"] = layers[model+".Step"].TotalS
		m[model+".steps"] = float64(layers[model+".Step"].Calls)
	}
	m["cluster.step_s"] = layers[spanClusterStep].TotalS
	return m
}
