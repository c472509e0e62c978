package kernels

import "phideep/internal/metrics"

// Wall-clock observability handles (DESIGN.md §"Observability"). Handles
// are resolved once here; every record site is guarded by metrics.Enabled,
// so with collection disabled the kernels pay one atomic load per call —
// never per element — and the packed path stays allocation-free.
var (
	// kernels.gemm.* describes every float64 Gemm call, kernels.gemm32.*
	// every float32 one, so f32-vs-f64 throughput and path mix can be
	// compared from one /metrics snapshot.
	mGemm   = newGemmMetrics("kernels.gemm")
	mGemm32 = newGemmMetrics("kernels.gemm32")

	mGemvCalls = metrics.Default().Counter("kernels.gemv.calls")

	// Convolution lowering kernels (DESIGN.md §12): how many gathers and
	// pools ran, how many elements they moved, and the im2col wall time —
	// the overhead the lowering pays to reach the packed GEMM. The f32
	// serving calls count into the same family, but only f64 calls are
	// timed (precision.im2colSeconds / poolSeconds): the seconds describe
	// the device-launched kernels, and f32 serving runs on the host. The
	// GEMM they feed is already split by the gemm/gemm32 families above.
	mConvIm2colCalls   = metrics.Default().Counter("kernels.conv.im2col.calls")
	mConvIm2colElems   = metrics.Default().FloatCounter("kernels.conv.im2col.elems")
	mConvIm2colSeconds = metrics.Default().Histogram("kernels.conv.im2col.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)
	mConvCol2imCalls   = metrics.Default().Counter("kernels.conv.col2im.calls")
	mConvPoolCalls     = metrics.Default().Counter("kernels.conv.pool.calls")
	mConvPoolElems     = metrics.Default().FloatCounter("kernels.conv.pool.elems")
	mConvPoolSeconds   = metrics.Default().Histogram("kernels.conv.pool.seconds", metrics.ExpBuckets(1e-6, 4, 12)...)
	mConvBiasGradCalls = metrics.Default().Counter("kernels.conv.biasgrad.calls")

	// Pack-arena pool behaviour: reuse means a pooled scratch buffer was
	// large enough, grow means it had to reallocate. In steady state the
	// grow count stops moving — the zero-alloc claim, made observable.
	mArenaReuse = metrics.Default().Counter("kernels.pack.arena.reuse")
	mArenaGrow  = metrics.Default().Counter("kernels.pack.arena.grow")
)

// gemmMetrics is one precision's Gemm metric family: how many calls, how
// much arithmetic (2·m·k·n flops each), the real host seconds per call
// (exponential buckets, 1 µs – ~16 s), and the micro-kernel path taken —
// the AVX2+FMA assembly tile, the pure-Go register-tile fallback, or the
// scalar (unblocked) loops.
type gemmMetrics struct {
	calls                       *metrics.Counter
	flops                       *metrics.FloatCounter
	seconds                     *metrics.Histogram
	pathAsm, pathGo, pathScalar *metrics.Counter
}

func newGemmMetrics(family string) gemmMetrics {
	r := metrics.Default()
	return gemmMetrics{
		calls:      r.Counter(family + ".calls"),
		flops:      r.FloatCounter(family + ".flops"),
		seconds:    r.Histogram(family+".seconds", metrics.ExpBuckets(1e-6, 4, 12)...),
		pathAsm:    r.Counter(family + ".path.asm"),
		pathGo:     r.Counter(family + ".path.go"),
		pathScalar: r.Counter(family + ".path.scalar"),
	}
}
