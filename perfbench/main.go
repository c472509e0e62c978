// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload (train, serve or cluster) in a single process against the
// program's Go APIs, checks the outputs, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload train --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the run measures the workload untraced for
// half of --seconds, then traced for the other half, and prints the
// per-layer metrics (metrics registry on, spans recorded around every call
// the benchmark makes) plus the tracing overhead on each end-to-end metric.
// The spans are written to .bench_build/spans/. README.md lists the
// workloads and what each metric means on each of them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"phideep/internal/metrics"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics every workload reports with tracing off, in
// BENCHMARK.json order. Their meaning per workload is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"examples_per_s", "1/s"},
	{"sim_s", "s"},
	{"p50_ms", "ms"},
}

// runConfig is what a workload receives: its seed, its measuring window,
// and the span recorder (nil when tracing is off).
type runConfig struct {
	seed    uint64
	seconds float64
	rec     *recorder
}

// outcome is what a workload reports: operations attempted and failed
// (failed output checks included), its end-to-end metrics, and the
// per-layer figures it measures itself (serve batching, load generator).
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
}

// minJobs is the fewest jobs train and cluster run, however short the
// window, so their medians always have several samples.
const minJobs = 3

// workloads maps a --workload name to its runner.
var workloads = map[string]func(runConfig) (outcome, error){
	"train":   runTrain,
	"serve":   runServe,
	"cluster": runCluster,
}

// errInvalid marks a run whose measurement cannot be trusted (the load
// generator fell behind its schedule). Such a run prints no result and
// exits with status 2, so it is never scored as a slow result.
var errInvalid = errors.New("invalid run")

func main() {
	workload := flag.String("workload", "", "train | serve | cluster")
	seed := flag.Uint64("seed", 1, "workload seed: every input, schedule and fault plan derives from it")
	seconds := flag.Float64("seconds", 20, "measuring window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	err := run(os.Stdout, filepath.Join(".bench_build", "spans"), *workload, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run measures one workload and prints its result to w; a traced run
// writes its span file into spanDir.
func run(w io.Writer, spanDir, workload string, seed uint64, seconds float64, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want train | serve | cluster)", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if trace == 0 {
		out, err := fn(runConfig{seed: seed, seconds: seconds})
		if err != nil {
			return fmt.Errorf("%s: %w", workload, err)
		}
		return report(w, out, endToEnd, out.e2e)
	}
	if trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	base, err := fn(runConfig{seed: seed, seconds: seconds / 2})
	if err != nil {
		return fmt.Errorf("%s (untraced half): %w", workload, err)
	}
	rec := newRecorder()
	metrics.Default().Reset()
	metrics.SetEnabled(true)
	traced, err := fn(runConfig{seed: seed, seconds: seconds / 2, rec: rec})
	metrics.SetEnabled(false)
	if err != nil {
		return fmt.Errorf("%s (traced half): %w", workload, err)
	}
	layer := layerMetrics(metrics.Default().Snapshot(), rec, traced.layer)
	for _, m := range endToEnd {
		if b := base.e2e[m.name]; b != 0 {
			layer["trace.overhead."+m.name] = traced.e2e[m.name]/b - 1
		}
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := rec.writeFile(path, workload); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %s (%d recorded, %d dropped)\n", path, len(rec.spans), rec.dropped)
	traced.attempted += base.attempted
	traced.failed += base.failed
	return report(w, traced, perLayer, layer)
}

// report prints the human-readable metric lines and then the result
// object as the last line. A metric the workload did not produce is 0
// (the layer did no work on this workload).
func report(w io.Writer, out outcome, specs []metricSpec, values map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, map[string]value{}}
	for _, m := range specs {
		v := values[m.name]
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", out.attempted, out.failed)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// derive maps (seed, label) to an independent sub-seed, so each input
// stream of a workload changes with the workload seed without depending on
// the order in which streams are drawn.
func derive(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 1099511628211
	}
	z := seed ^ h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank method (0 for
// none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// since returns the wall time since t in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
