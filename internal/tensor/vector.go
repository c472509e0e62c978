package tensor

import (
	"fmt"
	"math"

	"phideep/internal/rng"
)

// Vec is a dense vector with convenience helpers. It is a named slice type,
// so ordinary slice operations (len, indexing, range, append) work
// directly.
type Vec[T Float] []T

// Vector is the float64 vector of the training math.
type Vector = Vec[float64]

// Vector32 is the float32 vector of the reduced-precision serving path.
type Vector32 = Vec[float32]

// NewVector allocates a zeroed length-n float64 vector.
func NewVector(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("tensor: NewVector(%d): negative length", n))
	}
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vec[T]) Clone() Vec[T] {
	out := make(Vec[T], len(v))
	copy(out, v)
	return out
}

// Zero sets every element to 0.
func (v Vec[T]) Zero() {
	clear(v)
}

// Fill sets every element to x.
func (v Vec[T]) Fill(x T) {
	for i := range v {
		v[i] = x
	}
}

// Apply sets each element to f(element) in place and returns v.
func (v Vec[T]) Apply(f func(T) T) Vec[T] {
	for i, x := range v {
		v[i] = f(x)
	}
	return v
}

// Randomize fills v with uniform values in [lo, hi).
func (v Vec[T]) Randomize(r *rng.RNG, lo, hi float64) Vec[T] {
	for i := range v {
		v[i] = T(r.Uniform(lo, hi))
	}
	return v
}

// Sum returns the sum of the elements.
func (v Vec[T]) Sum() T {
	var s T
	for _, x := range v {
		s += x
	}
	return s
}

// Dot returns the inner product of v and w; lengths must match.
func (v Vec[T]) Dot(w Vec[T]) T {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch: %d vs %d", len(v), len(w)))
	}
	var s T
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec[T]) Norm2() T {
	var s T
	for _, x := range v {
		s += x * x
	}
	return T(math.Sqrt(float64(s)))
}

// MaxAbs returns the largest absolute element, or 0 for an empty vector.
func (v Vec[T]) MaxAbs() T {
	var m T
	for _, x := range v {
		if a := T(math.Abs(float64(x))); a > m {
			m = a
		}
	}
	return m
}

// To32 returns a float32 copy of v, rounding each element to nearest.
func (v Vec[T]) To32() Vector32 {
	out := make(Vector32, len(v))
	Convert(out, v)
	return out
}

// To64 returns a float64 copy of v (exact from float32).
func (v Vec[T]) To64() Vector {
	out := make(Vector, len(v))
	Convert(out, v)
	return out
}

// AsRow wraps v as a 1×n matrix sharing storage.
func (v Vec[T]) AsRow() *Mat[T] { return FromSlice(1, len(v), v) }

// AsCol wraps v as an n×1 matrix sharing storage.
func (v Vec[T]) AsCol() *Mat[T] { return FromSlice(len(v), 1, v) }

// EqualVec reports whether a and b have the same length and elements
// within tol.
func EqualVec[T Float](a, b Vec[T], tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > tol {
			return false
		}
	}
	return true
}
