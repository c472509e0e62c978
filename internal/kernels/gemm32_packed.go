package kernels

// Cache-blocking parameters of the float32 packed GEMM path. The register
// tile doubles in both extents relative to the f64 kernel (eight float32
// lanes per YMM instead of four float64), so an A sliver stays 8 KiB
// (mr32×kc×4 bytes) and a full B panel halves to 512 KiB. As with the f64
// constants, changing these affects speed only, never results.
const (
	mr32      = 8   // micro-kernel rows of C held in accumulators
	nr32      = 16  // micro-kernel cols of C held in accumulators
	kcBlock32 = 256 // k-extent of a packed panel (A sliver: mr32×kc = 8 KiB)
	ncBlock32 = 512 // n-extent of a packed B panel (kc×nc = 512 KiB ceiling)
)

// kernelTile32 computes the full mr32×nr32 register tile
//
//	out[ii*nr32+jj] = Σ_l ap[l*mr32+ii] · bp[l*nr32+jj]
//
// over one packed A sliver and one packed B micro-panel. On amd64 with
// AVX2+FMA the tile runs in sgemmKernel8x16; elsewhere (and under -tags
// noasm) the pure-Go fallback computes the same tile with one rounding per
// multiply and add instead of fused multiply-adds — the cross-path
// difference is bounded by the equivalence suite's f64-reference tolerance.
func kernelTile32(kc int, ap, bp, out []float32) {
	if useAsmKernel {
		sgemmKernel8x16(kc, &ap[0], &bp[0], &out[0])
		return
	}
	kernelTile32Go(kc, ap, bp, (*[mr32 * nr32]float32)(out))
}

func kernelTile32Go(kc int, ap, bp []float32, out *[mr32 * nr32]float32) {
	for i := range out {
		out[i] = 0
	}
	_ = ap[:kc*mr32]
	_ = bp[:kc*nr32]
	for l := 0; l < kc; l++ {
		av := ap[l*mr32 : l*mr32+mr32]
		bv := bp[l*nr32 : l*nr32+nr32]
		for ii, a := range av {
			o := out[ii*nr32 : ii*nr32+nr32]
			for jj, b := range bv {
				o[jj] += a * b
			}
		}
	}
}
