package kernels

import (
	"fmt"
	"strings"
	"testing"

	"phideep/internal/parallel"
	"phideep/internal/rng"
	"phideep/internal/tensor"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops a
// share of its Puts on purpose and allocation counts are meaningless.
var raceEnabled bool

// randMat is a rows×cols matrix of uniform [-1, 1) values at precision T.
func randMat[T tensor.Float](r *rng.RNG, rows, cols int) *tensor.Mat[T] {
	m := tensor.NewMat[T](rows, cols)
	tensor.Convert(m.Data, randMatrix(r, rows, cols).Data)
	return m
}

// checkGemmPackedBitwise asserts GemmPacked on PackB(b, transB) writes the
// same bits as Gemm on b, for every trans layout, blocked level, pool and
// alpha/beta pair. The shapes cross the kc (256) and nc (512) block edges
// at both precisions and leave ragged mr and nr edge tiles.
func checkGemmPackedBitwise[T tensor.Float](t *testing.T, pool3 *parallel.Pool) {
	t.Helper()
	r := rng.New(7)
	shapes := []struct{ m, k, n int }{{1, 1, 1}, {5, 7, 9}, {9, 300, 521}, {3, 513, 1040}}
	for _, sh := range shapes {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				ar, ac := sh.m, sh.k
				if transA {
					ar, ac = sh.k, sh.m
				}
				br, bc := sh.k, sh.n
				if transB {
					br, bc = sh.n, sh.k
				}
				a, b, c0 := randMat[T](r, ar, ac), randMat[T](r, br, bc), randMat[T](r, sh.m, sh.n)
				pb := PackB(b, transB)
				for _, lvl := range []Level{Blocked, ParallelBlocked} {
					for _, pool := range []*parallel.Pool{nil, pool3} {
						for _, ab := range [][2]T{{1, 0}, {0.5, 1}, {-2, 0.25}} {
							want, got := c0.Clone(), c0.Clone()
							Gemm(pool, lvl, transA, transB, ab[0], a, b, ab[1], want)
							GemmPacked(pool, lvl, transA, ab[0], a, pb, ab[1], got)
							if !tensor.Equal(want, got, 0) {
								t.Fatalf("%T %dx%dx%d transA=%v transB=%v %v pool=%v alpha=%v beta=%v: GemmPacked differs from Gemm by %g",
									ab[0], sh.m, sh.k, sh.n, transA, transB, lvl, pool != nil, ab[0], ab[1], tensor.MaxAbsDiff(want, got))
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmPackedMatchesGemmBitwise pins the contract serving relies on:
// packing op(B) once gives exactly the floats of packing it per call.
func TestGemmPackedMatchesGemmBitwise(t *testing.T) {
	pool := parallel.NewPool(3)
	defer pool.Close()
	checkGemmPackedBitwise[float64](t, pool)
	checkGemmPackedBitwise[float32](t, pool)
}

// TestGemmPackedDoesNotAllocate checks the steady-state zero-allocation
// claim for the pre-packed entry, serially and on a pool.
func TestGemmPackedDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	pool := parallel.NewPool(3)
	defer pool.Close()
	r := rng.New(3)
	a, c := randMat[float32](r, 8, 1024), tensor.NewMat[float32](8, 256)
	pb := PackB(randMat[float32](r, 1024, 256), false)
	for _, p := range []*parallel.Pool{nil, pool} {
		run := func() { GemmPacked(p, ParallelBlocked, false, 1, a, pb, 0, c) }
		run()
		if n := testing.AllocsPerRun(50, run); n != 0 {
			t.Errorf("pool=%v: GemmPacked allocates %.1f objects per call, want 0", p != nil, n)
		}
	}
}

// TestGemmPackedPanics checks that a packed operand of the wrong shape or
// an unblocked level is refused with a message naming the problem.
func TestGemmPackedPanics(t *testing.T) {
	pb := PackB(tensor.NewMatrix(7, 9), false)
	cases := []struct {
		name, want string
		call       func()
	}{
		{"k mismatch", "shape mismatch", func() {
			GemmPacked(nil, Blocked, false, 1, tensor.NewMatrix(5, 6), pb, 0, tensor.NewMatrix(5, 9))
		}},
		{"n mismatch", "shape mismatch", func() {
			GemmPacked(nil, Blocked, false, 1, tensor.NewMatrix(5, 7), pb, 0, tensor.NewMatrix(5, 8))
		}},
		{"naive level", "unblocked level", func() {
			GemmPacked(nil, Naive, false, 1, tensor.NewMatrix(5, 7), pb, 0, tensor.NewMatrix(5, 9))
		}},
		{"parallel level", "unblocked level", func() {
			GemmPacked(nil, Parallel, false, 1, tensor.NewMatrix(5, 7), pb, 0, tensor.NewMatrix(5, 9))
		}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want it to mention %q", tc.name, msg, tc.want)
				}
			}()
			tc.call()
		}()
	}
}
