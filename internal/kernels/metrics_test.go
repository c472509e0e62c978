package kernels

import (
	"testing"

	"phideep/internal/metrics"
	"phideep/internal/tensor"
)

// familyDelta is the change of one Gemm metric family between snapshots.
type familyDelta struct {
	calls, seconds int64
	flops          float64
	paths          map[string]int64 // asm, go, scalar
}

func gemmFamilyDelta(before, after metrics.Snapshot, family string) familyDelta {
	d := familyDelta{
		calls:   after.Counters[family+".calls"] - before.Counters[family+".calls"],
		seconds: after.Histograms[family+".seconds"].Count - before.Histograms[family+".seconds"].Count,
		flops:   after.Floats[family+".flops"] - before.Floats[family+".flops"],
		paths:   map[string]int64{},
	}
	for _, p := range []string{"asm", "go", "scalar"} {
		name := family + ".path." + p
		d.paths[p] = after.Counters[name] - before.Counters[name]
	}
	return d
}

// checkGemmMetrics runs one Gemm through gemm and asserts that exactly the
// family of its precision moved: one call, its flops, one timing and one
// path counter, with every series of the other family untouched.
func checkGemmMetrics(t *testing.T, lvl Level, family, other string, gemm func()) {
	t.Helper()
	const m, k, n = 5, 7, 9
	before := metrics.Default().Snapshot()
	gemm()
	after := metrics.Default().Snapshot()

	own := gemmFamilyDelta(before, after, family)
	if own.calls != 1 || own.seconds != 1 || own.flops != 2*m*k*n {
		t.Errorf("%v: %s moved calls %d, seconds %d, flops %g; want 1, 1, %d", lvl, family, own.calls, own.seconds, own.flops, 2*m*k*n)
	}
	want := "scalar"
	if lvl.IsBlocked() {
		want = "go"
		if useAsmKernel {
			want = "asm"
		}
	}
	for p, v := range own.paths {
		exp := int64(0)
		if p == want {
			exp = 1
		}
		if v != exp {
			t.Errorf("%v: %s.path.%s moved %d, want %d", lvl, family, p, v, exp)
		}
	}
	if o := gemmFamilyDelta(before, after, other); o.calls != 0 || o.seconds != 0 || o.flops != 0 || o.paths["asm"]+o.paths["go"]+o.paths["scalar"] != 0 {
		t.Errorf("%v: %s call moved the %s family: %+v", lvl, family, other, o)
	}
}

// TestGemmMetricsSplitByPrecision pins the series perfbench's per-layer
// report reads: a float32 Gemm or GemmPacked records into kernels.gemm32.*
// only, a float64 one into kernels.gemm.* only, at every level the entry
// accepts.
func TestGemmMetricsSplitByPrecision(t *testing.T) {
	prev := metrics.Enabled()
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(prev)

	a, b, c := tensor.NewMatrix(5, 7), tensor.NewMatrix(7, 9), tensor.NewMatrix(5, 9)
	a32, b32, c32 := a.To32(), b.To32(), c.To32()
	pb, pb32 := PackB(b, false), PackB(b32, false)
	for _, lvl := range Levels {
		checkGemmMetrics(t, lvl, "kernels.gemm32", "kernels.gemm", func() {
			Gemm(nil, lvl, false, false, 1, a32, b32, 0, c32)
		})
		checkGemmMetrics(t, lvl, "kernels.gemm", "kernels.gemm32", func() {
			Gemm(nil, lvl, false, false, 1, a, b, 0, c)
		})
		if !lvl.IsBlocked() {
			continue
		}
		checkGemmMetrics(t, lvl, "kernels.gemm32", "kernels.gemm", func() {
			GemmPacked(nil, lvl, false, 1, a32, pb32, 0, c32)
		})
		checkGemmMetrics(t, lvl, "kernels.gemm", "kernels.gemm32", func() {
			GemmPacked(nil, lvl, false, 1, a, pb, 0, c)
		})
	}
}
