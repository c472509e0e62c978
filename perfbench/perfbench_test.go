package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestPlansRepeatPerSeed(t *testing.T) {
	if !reflect.DeepEqual(newTrainPlan(7), newTrainPlan(7)) {
		t.Error("train plan differs between two draws of seed 7")
	}
	if reflect.DeepEqual(newTrainPlan(7), newTrainPlan(8)) {
		t.Error("train plan identical for seeds 7 and 8")
	}
	if !reflect.DeepEqual(newClusterPlan(7), newClusterPlan(7)) {
		t.Error("cluster plan differs between two draws of seed 7")
	}
	a, b := newClusterPlan(7), newClusterPlan(8)
	if a.DigitSeed == b.DigitSeed || a.ModelSeed == b.ModelSeed || a.Faults.Seed == b.Faults.Seed {
		t.Errorf("cluster data, model or fault seeds shared by seeds 7 and 8: %+v %+v", a, b)
	}
	s7, s8 := newServePlan(7, 2), newServePlan(7, 2)
	if !reflect.DeepEqual(s7, s8) {
		t.Error("serve schedule differs between two draws of seed 7")
	}
	o := newServePlan(8, 2)
	if reflect.DeepEqual(s7.Low, o.Low) || reflect.DeepEqual(s7.High, o.High) || s7.PatchSeed == o.PatchSeed {
		t.Error("serve schedule or data seeds identical for seeds 7 and 8")
	}
}

func TestServeScheduleMix(t *testing.T) {
	p := newServePlan(3, 4)
	counts := map[int]int{}
	checked := 0
	for i, a := range p.High {
		if i > 0 && a.At < p.High[i-1].At {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		counts[a.Op]++
		if a.Check {
			checked++
		}
	}
	n := float64(len(p.High))
	if want := serveHighRate * 2; n < 0.95*want || n > 1.05*want {
		t.Errorf("high phase holds %v arrivals in 2 s, want about %v", n, want)
	}
	share := func(op int) float64 { return float64(counts[op]) / n }
	if s := share(opPredict); s < 0.28 || s > 0.32 {
		t.Errorf("convnet share %.3f, want about %.2f", s, serveConvnetShare)
	}
	if s := share(opReconstruct) / (1 - share(opPredict)); s < 0.13 || s > 0.17 {
		t.Errorf("reconstruct share of AE requests %.3f, want about %.2f", s, serveReconShare)
	}
	if s := float64(checked) / n; s < 0.05 || s > 0.075 {
		t.Errorf("checked share %.3f, want about %.4f", s, serveCheckShare)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ (at most 64, starting alphanumeric)", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: bad unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		prog []metricSpec
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.file), len(c.prog))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestWorkloadsEmitEndToEnd runs every workload on a short window: each
// must pass its output checks and produce exactly the end-to-end metrics,
// none of them 0, and only per-layer figures perLayer lists.
func TestWorkloadsEmitEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for name, fn := range workloads {
		out, err := fn(runConfig{seed: 5, seconds: 0.2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.attempted == 0 || out.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", name, out.attempted, out.failed)
		}
		if len(out.e2e) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d: %v", name, len(out.e2e), len(endToEnd), out.e2e)
		}
		for _, m := range endToEnd {
			if v, ok := out.e2e[m.name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v (present %v), want a positive value", name, m.name, v, ok)
			}
		}
		// A per-layer figure perLayer does not list would never be printed.
		for m := range out.layer {
			if !known[m] {
				t.Errorf("%s: sets per-layer figure %q that perLayer does not list", name, m)
			}
		}
	}
}

// TestTracedRun checks the traced path end to end on the serve workload:
// the span file is written and the result line carries exactly the
// per-layer metrics, every one of them a known name.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve workload twice")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, dir, "serve", 2, 0.4, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct bool                               `json:"correct"`
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("correct %v with %d metrics, want true with %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	for _, m := range []string{"kernels.gemm32_s", "serve.high.ae.avg_batch", "loadgen.low.sent", "trace.overhead.p50_ms"} {
		if res.Metrics[m].Value == 0 {
			t.Errorf("%s = 0 on a traced serve run", m)
		}
	}
	if _, err := os.Stat(dir + "/spans-serve-seed2.json"); err != nil {
		t.Error(err)
	}
}
