// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V) from the simulated platforms, one target per exhibit:
//
//	go test -bench=. -benchmem
//
// Each benchmark drives the same runners as cmd/phibench and reports the
// headline simulated quantity as a custom metric (sim-seconds or speedup),
// so the paper-vs-measured comparison in EXPERIMENTS.md can be refreshed
// from the bench output. The Ablation* targets cover the design choices
// DESIGN.md calls out; the Kernel*/Scheduling targets are real wall-clock
// microbenchmarks of the numeric kernels.
package phideep_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"phideep"
	"phideep/internal/experiments"
	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// simSeconds extracts the float value of a table cell like "97.5 s",
// "55.9 ms" or "16.4x".
func simSeconds(cell string) float64 {
	cell = strings.TrimSpace(cell)
	mult := 1.0
	switch {
	case strings.HasSuffix(cell, " ms"):
		cell, mult = strings.TrimSuffix(cell, " ms"), 1e-3
	case strings.HasSuffix(cell, " µs"):
		cell, mult = strings.TrimSuffix(cell, " µs"), 1e-6
	case strings.HasSuffix(cell, " s"):
		cell = strings.TrimSuffix(cell, " s")
	case strings.HasSuffix(cell, "x"):
		cell = strings.TrimSuffix(cell, "x")
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// benchTable runs a table generator b.N times and reports metrics extracted
// from named cells of the last run.
func benchTable(b *testing.B, run func() *experiments.Table, metrics map[string][2]int) {
	b.Helper()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = run()
	}
	b.StopTimer()
	for name, rc := range metrics {
		b.ReportMetric(simSeconds(t.Rows[rc[0]][rc[1]]), name)
	}
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkFig7NetworkSizeAutoencoder regenerates Fig. 7(a): the
// network-size sweep for the Sparse Autoencoder. Metrics: simulated seconds
// on the Phi for the smallest and largest networks and the largest-network
// speedup over one CPU core.
func BenchmarkFig7NetworkSizeAutoencoder(b *testing.B) {
	benchTable(b, func() *experiments.Table { return experiments.Fig7(experiments.AE) },
		map[string][2]int{
			"phi-small-s":   {0, 2},
			"phi-large-s":   {3, 2},
			"speedup-large": {3, 3},
		})
}

// BenchmarkFig7NetworkSizeRBM regenerates Fig. 7(b) for the RBM.
func BenchmarkFig7NetworkSizeRBM(b *testing.B) {
	benchTable(b, func() *experiments.Table { return experiments.Fig7(experiments.RBM) },
		map[string][2]int{
			"phi-small-s":   {0, 2},
			"phi-large-s":   {3, 2},
			"speedup-large": {3, 3},
		})
}

// BenchmarkFig8DatasetSizeAutoencoder regenerates Fig. 8(a): dataset-size
// sweep, Autoencoder.
func BenchmarkFig8DatasetSizeAutoencoder(b *testing.B) {
	benchTable(b, func() *experiments.Table { return experiments.Fig8(experiments.AE) },
		map[string][2]int{
			"phi-100k-s": {0, 2},
			"phi-1M-s":   {4, 2},
			"cpu-1M-s":   {4, 1},
		})
}

// BenchmarkFig8DatasetSizeRBM regenerates Fig. 8(b) for the RBM.
func BenchmarkFig8DatasetSizeRBM(b *testing.B) {
	benchTable(b, func() *experiments.Table { return experiments.Fig8(experiments.RBM) },
		map[string][2]int{
			"phi-100k-s": {0, 2},
			"phi-1M-s":   {4, 2},
		})
}

// BenchmarkFig9BatchSizeAutoencoder regenerates Fig. 9(a): batch-size
// sweep, Autoencoder. The paper's claim — Phi time drops by roughly two
// thirds from batch 200 to 10 000 — is the phi-drop metric (≈3 or more).
func BenchmarkFig9BatchSizeAutoencoder(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig9(experiments.AE)
	}
	b.StopTimer()
	small := simSeconds(t.Rows[0][2])
	large := simSeconds(t.Rows[5][2])
	b.ReportMetric(small, "phi-batch200-s")
	b.ReportMetric(large, "phi-batch10000-s")
	b.ReportMetric(small/large, "phi-drop")
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkFig9BatchSizeRBM regenerates Fig. 9(b) for the RBM.
func BenchmarkFig9BatchSizeRBM(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig9(experiments.RBM)
	}
	b.StopTimer()
	small := simSeconds(t.Rows[0][2])
	large := simSeconds(t.Rows[5][2])
	b.ReportMetric(small/large, "phi-drop")
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkFig10Matlab regenerates Fig. 10: Matlab on the host CPU versus
// the Phi (paper: ≈16×; the speedup metric is the smallest, paper-scale
// network).
func BenchmarkFig10Matlab(b *testing.B) {
	benchTable(b, experiments.Fig10,
		map[string][2]int{
			"speedup-576x1024":  {0, 3},
			"speedup-1024x4096": {1, 3},
		})
}

// BenchmarkTable1OptimizationSteps regenerates Table I: the optimization
// ladder at 60 and 30 cores. Paper: 16042 s → 892 s → 97 s → 53 s and
// speedups 302× / 197×.
func BenchmarkTable1OptimizationSteps(b *testing.B) {
	benchTable(b, experiments.Table1,
		map[string][2]int{
			"baseline60-s": {0, 1},
			"openmp60-s":   {1, 1},
			"mkl60-s":      {2, 1},
			"improved60-s": {3, 1},
			"improved30-s": {3, 2},
			"speedup60":    {4, 1},
			"speedup30":    {4, 2},
		})
}

// BenchmarkFig5TransferOverlap regenerates the §IV.A loading-thread
// measurement (transfers ≈17% of unoverlapped time; hidden with prefetch).
func BenchmarkFig5TransferOverlap(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig5Overlap()
	}
	b.StopTimer()
	sync := simSeconds(t.Rows[0][1])
	pre := simSeconds(t.Rows[1][1])
	b.ReportMetric(sync, "sync-s")
	b.ReportMetric(pre, "prefetch-s")
	b.ReportMetric((sync-pre)/sync*100, "saved-pct")
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// --- Ablations (design choices from DESIGN.md) ---

func BenchmarkAblationVectorization(b *testing.B) {
	benchTable(b, experiments.AblationVectorization,
		map[string][2]int{"scalar-slowdown": {1, 2}})
}

func BenchmarkAblationLoopFusion(b *testing.B) {
	benchTable(b, experiments.AblationLoopFusion,
		map[string][2]int{"unfused-slowdown": {1, 2}})
}

func BenchmarkAblationPrefetch(b *testing.B) {
	benchTable(b, experiments.AblationPrefetch,
		map[string][2]int{"sync-slowdown": {1, 2}})
}

func BenchmarkAblationRBMDependencyGraph(b *testing.B) {
	benchTable(b, experiments.AblationRBMDependencyGraph,
		map[string][2]int{"serial-slowdown": {1, 2}})
}

func BenchmarkAblationThreadsPerCore(b *testing.B) {
	benchTable(b, experiments.AblationThreadsPerCore,
		map[string][2]int{
			"tpc1-s": {0, 2},
			"tpc2-s": {1, 2},
			"tpc4-s": {3, 2},
		})
}

func BenchmarkAblationCoreScaling(b *testing.B) {
	benchTable(b, experiments.AblationCoreCount,
		map[string][2]int{"speedup-60core": {5, 2}})
}

func BenchmarkAblationHostComparison(b *testing.B) {
	benchTable(b, experiments.AblationHostComparison,
		map[string][2]int{
			"vs-1core":  {0, 2},
			"vs-dual":   {2, 2},
			"vs-matlab": {3, 2},
		})
}

// BenchmarkFutureWorkHybrid regenerates the §VI hybrid host+Phi prediction:
// gain on small models, loss on large ones.
func BenchmarkFutureWorkHybrid(b *testing.B) {
	benchTable(b, experiments.HybridCrossover,
		map[string][2]int{
			"gain-small": {0, 3},
			"gain-large": {3, 3},
		})
}

// BenchmarkFutureWorkAutoTune regenerates the §VI thread-balance tuner.
func BenchmarkFutureWorkAutoTune(b *testing.B) {
	benchTable(b, experiments.AutoTune,
		map[string][2]int{"gain-batch200": {1, 4}})
}

// BenchmarkSGDVsBatchMethods regenerates the §III trade-off study: batch
// methods are device-friendly but spend far more simulated time per update.
func BenchmarkSGDVsBatchMethods(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.BatchMethods()
	}
	b.StopTimer()
	b.ReportMetric(simSeconds(t.Rows[0][4]), "sgd-s")
	b.ReportMetric(simSeconds(t.Rows[1][4]), "lbfgs-s")
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkClusterVsPhi regenerates the positioning study: one coprocessor
// against a commodity parameter-averaging cluster.
func BenchmarkClusterVsPhi(b *testing.B) {
	benchTable(b, experiments.ClusterVsPhi,
		map[string][2]int{
			"cluster16-s": {3, 1},
			"phi-s":       {4, 1},
		})
}

// --- Numeric kernel microbenchmarks (real wall clock) ---

// BenchmarkKernelGemm measures the real Go GEMM at each optimization level
// on a 128×256×128 multiply — the ladder the cost model abstracts.
func BenchmarkKernelGemm(b *testing.B) {
	r := rng.New(1)
	a := tensor.NewMatrix(128, 256).Randomize(r, -1, 1)
	bm := tensor.NewMatrix(256, 128).Randomize(r, -1, 1)
	c := tensor.NewMatrix(128, 128)
	pool := parallel.NewPool(0)
	defer pool.Close()
	for _, lvl := range kernels.Levels {
		b.Run(lvl.String(), func(b *testing.B) {
			b.SetBytes(128 * 256 * 128 * 2 * 8 / 1e0)
			for i := 0; i < b.N; i++ {
				kernels.Gemm(pool, lvl, false, false, 1, a, bm, 0, c)
			}
			reportGflops(b, 128, 256, 128)
		})
	}
}

// reportGflops attaches achieved GEMM throughput (2·m·k·n flops per call)
// to a benchmark, so `go test -bench Kernel` output feeds the wall-clock
// tables in EXPERIMENTS.md directly.
func reportGflops(b *testing.B, m, k, n int) {
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		flops := 2 * float64(m) * float64(k) * float64(n) * float64(b.N)
		b.ReportMetric(flops/sec/1e9, "GFLOP/s")
	}
}

// BenchmarkKernelGemm512 measures the real GEMM ladder on a square
// 512×512×512 multiply — large enough that the packed path's cache
// blocking and register tiling dominate, and the headline case for the
// packed micro-kernel speedup tracked in EXPERIMENTS.md.
func BenchmarkKernelGemm512(b *testing.B) {
	r := rng.New(2)
	a := tensor.NewMatrix(512, 512).Randomize(r, -1, 1)
	bm := tensor.NewMatrix(512, 512).Randomize(r, -1, 1)
	c := tensor.NewMatrix(512, 512)
	pool := parallel.NewPool(0)
	defer pool.Close()
	for _, lvl := range kernels.Levels {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.Gemm(pool, lvl, false, false, 1, a, bm, 0, c)
			}
			reportGflops(b, 512, 512, 512)
		})
	}
}

// BenchmarkKernelGemm512F32 measures the float32 GEMM ladder on the same
// 512×512×512 multiply as BenchmarkKernelGemm512. The headline comparison
// for EXPERIMENTS.md: the blocked f32 path should clear 1.5× the f64
// GFLOP/s — eight lanes per FMA instead of four, half the pack traffic.
func BenchmarkKernelGemm512F32(b *testing.B) {
	r := rng.New(2)
	a := tensor.NewMatrix(512, 512).Randomize(r, -1, 1).To32()
	bm := tensor.NewMatrix(512, 512).Randomize(r, -1, 1).To32()
	c := tensor.NewMat[float32](512, 512)
	pool := parallel.NewPool(0)
	defer pool.Close()
	for _, lvl := range kernels.Levels {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.Gemm(pool, lvl, false, false, 1, a, bm, 0, c)
			}
			reportGflops(b, 512, 512, 512)
		})
	}
}

// BenchmarkKernelGemmPacked32 compares per-call packing (Gemm) with
// panels packed once (GemmPacked) on a served f32 layer: 1024×256 weights
// at request-sized batches m ∈ {1, 8, 32}, Blocked, one thread. The gap is
// the re-packing of W that pre-packing takes off the serve hot path.
func BenchmarkKernelGemmPacked32(b *testing.B) {
	const k, n = 1024, 256
	r := rng.New(5)
	w := tensor.NewMatrix(k, n).Randomize(r, -1, 1).To32()
	pw := kernels.PackB(w, false)
	for _, m := range []int{1, 8, 32} {
		a := tensor.NewMatrix(m, k).Randomize(r, 0, 1).To32()
		c := tensor.NewMat[float32](m, n)
		b.Run(fmt.Sprintf("m=%d/gemm", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.Gemm(nil, kernels.Blocked, false, false, 1, a, w, 0, c)
			}
			reportGflops(b, m, k, n)
		})
		b.Run(fmt.Sprintf("m=%d/packed", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.GemmPacked(nil, kernels.Blocked, false, 1, a, pw, 0, c)
			}
			reportGflops(b, m, k, n)
		})
	}
}

// BenchmarkKernelConvIm2col measures the im2col-lowered convolution forward
// (lowering + packed GEMM) at each optimization level on a LeNet-scale
// layer: batch 32 of 16×16×6 maps, 12 filters of 5×5, stride 1, same pad —
// the conv workload DESIGN.md §12 lowers onto the GEMM ladder. GFLOP/s
// counts the GEMM flops only (2·M·K·N with M=batch·outHW, K=KH·KW·C, N=F);
// the lowering overhead shows up as the gap to BenchmarkKernelGemm at the
// same level.
func BenchmarkKernelConvIm2col(b *testing.B) {
	s := kernels.ConvShape{C: 6, H: 16, W: 16, F: 12, KH: 5, KW: 5, Stride: 1, Pad: 2}
	const batch = 32
	r := rng.New(4)
	x := tensor.NewMatrix(batch, s.InDim()).Randomize(r, 0, 1)
	w := tensor.NewMatrix(s.ColK(), s.F).Randomize(r, -0.1, 0.1)
	m := batch * s.OutH() * s.OutW()
	cols := tensor.NewMatrix(m, s.ColK())
	y := tensor.NewMatrix(m, s.F)
	pool := parallel.NewPool(0)
	defer pool.Close()
	for _, lvl := range kernels.Levels {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.Im2col(pool, lvl, s, batch, x, cols)
				kernels.Gemm(pool, lvl, false, false, 1, cols, w, 0, y)
			}
			reportGflops(b, m, s.ColK(), s.F)
		})
	}
}

// BenchmarkConvnetTrainingStep measures one real numeric convnet SGD step
// (16×16 inputs, 6/12-filter conv stack, batch 32) end to end on the
// simulated Phi through the public API — the supervised counterpart of
// BenchmarkNumericTrainingStep, and the per-step number behind the
// EXPERIMENTS.md convnet epoch-time table.
func BenchmarkConvnetTrainingStep(b *testing.B) {
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	b.Cleanup(mach.Close)
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 1)
	cfg := phideep.ConvnetConfig{
		Side: 16, Filters1: 6, Kernel1: 5, Filters2: 12, Kernel2: 3,
		Pool: 2, Classes: 10, Lambda: 1e-4, Batch: 32, Seed: 2,
	}
	m, err := phideep.BuildConvnet(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(6)
	x := tensor.NewMatrix(32, cfg.InputDim()).Randomize(r, 0, 1)
	y := tensor.NewMatrix(32, cfg.Classes)
	for i := 0; i < 32; i++ {
		y.RowView(i)[r.Intn(cfg.Classes)] = 1
	}
	dx := mach.Dev.MustAlloc(32, cfg.InputDim())
	dy := mach.Dev.MustAlloc(32, cfg.Classes)
	mach.Dev.CopyIn(dx, x, 0)
	mach.Dev.CopyIn(dy, y, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepLabeled(dx, dy, 0.1)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(32*float64(b.N)/sec, "examples/s")
	}
}

// BenchmarkServeEncode measures served Encode throughput through the full
// micro-batching stack at each precision (examples/s), with enough
// concurrent clients to keep the batcher coalescing, for a 256→64 and a
// 1024→256 autoencoder. The f64/f32 ratio is the serving-side view of the
// reduced-precision speedup; the larger model is the one where the GEMM,
// not the batcher, dominates.
func BenchmarkServeEncode(b *testing.B) {
	for _, size := range [][2]int{{256, 64}, {1024, 256}} {
		for _, prec := range []phideep.Precision{phideep.PrecisionF64, phideep.PrecisionF32} {
			b.Run(fmt.Sprintf("%dx%d/%s", size[0], size[1], prec), func(b *testing.B) {
				benchServeEncode(b, size[0], size[1], prec)
			})
		}
	}
}

func benchServeEncode(b *testing.B, visible, hidden int, prec phideep.Precision) {
	m := phideep.ServeAutoencoder(phideep.AutoencoderConfig{Visible: visible, Hidden: hidden, Seed: 1}, nil)
	srv, err := phideep.NewServer(m, phideep.ServeConfig{
		Level: phideep.Improved, Workers: 2,
		MaxBatch: 32, MaxWait: 200 * time.Microsecond,
	}, phideep.WithPrecision(prec))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	x := make([]float64, visible)
	r := rng.New(7)
	for j := range x {
		x[j] = r.Float64()
	}
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := srv.Encode(x); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "examples/s")
	}
}

// BenchmarkKernelGemvTrans measures the transposed Gemv (y = Aᵀx), the
// path parallelized with per-worker partial vectors.
func BenchmarkKernelGemvTrans(b *testing.B) {
	r := rng.New(3)
	a := tensor.NewMatrix(1024, 512).Randomize(r, -1, 1)
	x := tensor.NewVector(1024).Randomize(r, -1, 1)
	y := tensor.NewVector(512)
	pool := parallel.NewPool(0)
	defer pool.Close()
	for _, lvl := range kernels.Levels {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.Gemv(pool, lvl, true, 1, a, x, 0, y)
			}
		})
	}
}

// BenchmarkSchedulingStaticVsDynamic measures the real parallel-for
// schedules on a uniform elementwise body (static should win — the paper's
// granularity discussion).
func BenchmarkSchedulingStaticVsDynamic(b *testing.B) {
	pool := parallel.NewPool(0)
	defer pool.Close()
	x := make([]float64, 1<<16)
	for _, sched := range []parallel.Schedule{parallel.Static, parallel.Dynamic} {
		b.Run(sched.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.For(len(x), sched, 1024, func(lo, hi int) {
					for j := lo; j < hi; j++ {
						x[j] = x[j]*0.5 + 1
					}
				})
			}
		})
	}
}

// BenchmarkNumericTrainingStep measures one real numeric Autoencoder SGD
// step (64→25, batch 32) end to end on the simulated Phi, through the
// public API.
func BenchmarkNumericTrainingStep(b *testing.B) {
	mach := phideep.NewMachine(phideep.XeonPhi5110P(), phideep.WithNumeric())
	b.Cleanup(mach.Close)
	ctx := phideep.NewContext(mach.Dev, phideep.Improved, 0, 1)
	m, err := phideep.BuildAutoencoder(ctx, phideep.AutoencoderConfig{
		Visible: 64, Hidden: 25, Lambda: 1e-4, Beta: 3, Rho: 0.05,
		Batch: 32, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.NewMatrix(32, 64).Randomize(rng.New(5), 0.1, 0.9)
	dx := mach.Dev.MustAlloc(32, 64)
	mach.Dev.CopyIn(dx, x, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(dx, 0.1)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(32*float64(b.N)/sec, "examples/s")
	}
}
