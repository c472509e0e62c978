package kernels

import (
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// gemmState is the loop descriptor of one packed GEMM. It implements
// parallel.Ranger so row-tile ranges can be submitted to the pool without
// allocating a closure, and it is pooled so steady-state packed GEMMs
// allocate nothing at all. The packed B panel inside it is written by the
// submitting goroutine and shared read-only by every worker: each panel is
// packed exactly once per GEMM, not once per worker.
type gemmState[T tensor.Float] struct {
	p              *precision[T]
	a, c           *tensor.Mat[T]
	transA, transB bool
	alpha, beta    T
	m              int
	// Current panel: op(B)[pc:pc+kc, jc:jc+nc] packed into bp.
	pc, kc, jc, nc int
	first          bool // first k-panel of this jc block: fold beta here
	bArena         *arena[T]
	bp             []T
}

// Range processes row tiles [lo, hi) (tile t covers C rows
// [t*mr, t*mr+mr)) of the current panel. Each worker packs its own op(A)
// slivers into a worker-local arena (mr×kc ≈ 8 KiB, L1-resident) and reuses
// the sliver across every micro-panel of the shared packed B; the register
// tile's spill buffer rides in the same arena.
func (g *gemmState[T]) Range(lo, hi int) {
	p := g.p
	mr, nr := p.mr, p.nr
	ar := p.arenas.Get().(*arena[T])
	buf := ar.ensure(g.kc*mr + mr*nr)
	ap, acc := buf[:g.kc*mr], buf[g.kc*mr:]
	beta := T(1)
	if g.first {
		beta = g.beta
	}
	panels := (g.nc + nr - 1) / nr
	for t := lo; t < hi; t++ {
		i0 := t * mr
		h := mr
		if rem := g.m - i0; rem < h {
			h = rem
		}
		packA(ap, mr, g.a, g.transA, i0, h, g.pc, g.kc)
		for jp := 0; jp < panels; jp++ {
			j0 := g.jc + jp*nr
			w := nr
			if rem := g.jc + g.nc - j0; rem < w {
				w = rem
			}
			p.tile(g.kc, ap, g.bp[jp*g.kc*nr:(jp+1)*g.kc*nr], acc)
			foldTile(acc, nr, g.alpha, beta, g.c, i0, j0, h, w)
		}
	}
	p.arenas.Put(ar)
}

// gemmPacked runs C = alpha·op(A)·op(B) + beta·C through the packed
// micro-kernel of T's precision, parallelized over row tiles when the level
// and pool allow. The summation order over k is fixed by the packing loop
// (k-panels in ascending order, ascending l within a panel) and every C
// tile is written by exactly one worker, so results are bit-identical for
// any worker count — Blocked and ParallelBlocked produce the same floats.
func gemmPacked[T tensor.Float](pool *parallel.Pool, lvl Level, transA, transB bool, alpha T, a, b *tensor.Mat[T], beta T, c *tensor.Mat[T], m, k, n int) {
	p := prec[T]()
	g := p.states.Get().(*gemmState[T])
	g.p = p
	g.a, g.c = a, c
	g.transA, g.transB = transA, transB
	g.alpha, g.beta = alpha, beta
	g.m = m
	g.bArena = p.arenas.Get().(*arena[T])
	useDeviceParallel := lvl.IsParallel() && pool != nil && pool.Workers() > 1
	tiles := (m + p.mr - 1) / p.mr
	for jc := 0; jc < n; jc += p.ncBlock {
		nc := p.ncBlock
		if rem := n - jc; rem < nc {
			nc = rem
		}
		for pc := 0; pc < k; pc += p.kcBlock {
			kc := p.kcBlock
			if rem := k - pc; rem < kc {
				kc = rem
			}
			g.pc, g.kc, g.jc, g.nc = pc, kc, jc, nc
			g.first = pc == 0
			g.bp = g.bArena.ensure(((nc + p.nr - 1) / p.nr) * kc * p.nr)
			packB(g.bp, p.nr, b, transB, pc, kc, jc, nc)
			if useDeviceParallel {
				pool.ForRanger(tiles, parallel.Static, 0, g)
			} else {
				g.Range(0, tiles)
			}
		}
	}
	p.arenas.Put(g.bArena)
	*g = gemmState[T]{}
	p.states.Put(g)
}
