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
// and pool allow. op(B) comes either as b, packed panel by panel into a
// pooled arena, or as pb, every panel packed in advance by PackB — the
// same bytes in the same order, so both forms produce the same floats. The
// summation order over k is fixed by the packing loop (k-panels in
// ascending order, ascending l within a panel) and every C tile is written
// by exactly one worker, so results are bit-identical for any worker count
// — Blocked and ParallelBlocked produce the same floats.
func gemmPacked[T tensor.Float](pool *parallel.Pool, lvl Level, transA, transB bool, alpha T, a, b *tensor.Mat[T], pb *PackedB[T], beta T, c *tensor.Mat[T], m, k, n int) {
	p := prec[T]()
	g := p.states.Get().(*gemmState[T])
	g.p = p
	g.a, g.c = a, c
	g.transA, g.transB = transA, transB
	g.alpha, g.beta = alpha, beta
	g.m = m
	if pb == nil {
		g.bArena = p.arenas.Get().(*arena[T])
	}
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
			if pb != nil {
				g.bp = pb.panel(jc, pc, kc, nc)
			} else {
				g.bp = g.bArena.ensure(panelLen(p.nr, kc, nc))
				packB(g.bp, p.nr, b, transB, pc, kc, jc, nc)
			}
			if useDeviceParallel {
				pool.ForRanger(tiles, parallel.Static, 0, g)
			} else {
				g.Range(0, tiles)
			}
		}
	}
	if g.bArena != nil {
		p.arenas.Put(g.bArena)
	}
	*g = gemmState[T]{}
	p.states.Put(g)
}

// panelLen is the length of one packed kc×nc panel: nc rounded up to whole
// nr-wide micro-panels, kc deep.
func panelLen(nr, kc, nc int) int { return (nc + nr - 1) / nr * kc * nr }

// PackedB is op(B) packed once into the micro-kernel panel layout of T's
// precision: every kc×nc panel the packed loop nest would pack per call,
// stored back to back in its order (jc blocks ascending, k-panels
// ascending within a block). It is for an operand that outlives many
// products — a served model's weights — so GemmPacked skips the per-call
// re-packing. A PackedB is immutable and safe to share across goroutines.
type PackedB[T tensor.Float] struct {
	k, n   int
	panels []T
}

// PackB packs op(B) (B, or Bᵀ with transB) for GemmPacked. The panels copy
// b's values, so later writes to b do not reach them.
func PackB[T tensor.Float](b *tensor.Mat[T], transB bool) *PackedB[T] {
	p := prec[T]()
	k, n := opShape(b, transB)
	pb := &PackedB[T]{k: k, n: n, panels: make([]T, panelLen(p.nr, k, n))}
	for jc := 0; jc < n; jc += p.ncBlock {
		nc := min(p.ncBlock, n-jc)
		for pc := 0; pc < k; pc += p.kcBlock {
			kc := min(p.kcBlock, k-pc)
			packB(pb.panel(jc, pc, kc, nc), p.nr, b, transB, pc, kc, jc, nc)
		}
	}
	return pb
}

// panel returns the packed panel op(B)[pc:pc+kc, jc:jc+nc]. ncBlock is a
// whole number of micro-panels, so every jc block before this one holds
// ncBlock·k elements and every k-panel before pc in this block holds
// roundup(nc, nr)·pc: the offset is closed-form.
func (pb *PackedB[T]) panel(jc, pc, kc, nc int) []T {
	nr := prec[T]().nr
	off := jc*pb.k + panelLen(nr, pc, nc)
	return pb.panels[off : off+panelLen(nr, kc, nc)]
}
