// Package tensor implements the dense matrices and vectors that all phideep
// model math is written against. One generic body serves both precisions:
// Matrix and Vector are the float64 instantiations every training path
// uses, Matrix32 and Vector32 the float32 ones of the reduced-precision
// serving path.
//
// Matrices are row-major with an explicit stride, so a Matrix can be either
// an owner of its backing slice or a rectangular view into another matrix
// (used by the minibatch loop to walk a data chunk without copying).
// The package deliberately contains no compute kernels beyond trivial
// element access; GEMM and friends live in internal/kernels so that the
// optimization levels of the paper (naive, blocked, parallel, "MKL") stay
// in one place.
package tensor

import (
	"fmt"
	"math"

	"phideep/internal/rng"
)

// Float is the element type constraint of the package: the two precisions
// the kernels have micro-kernels for.
type Float interface{ float32 | float64 }

// Mat is a dense row-major matrix. Element (i, j) lives at
// Data[i*Stride+j]. Rows*Cols may be smaller than len(Data) when the matrix
// is a view. The zero value is an empty matrix.
type Mat[T Float] struct {
	Rows, Cols int
	Stride     int
	Data       []T
}

// Matrix is the float64 matrix all training math runs on.
type Matrix = Mat[float64]

// Matrix32 is the float32 matrix of the reduced-precision serving path:
// halving the element width doubles the SIMD lanes per FMA and halves
// memory traffic. Training math stays float64.
type Matrix32 = Mat[float32]

// NewMat allocates a zeroed r×c matrix of element type T.
func NewMat[T Float](r, c int) *Mat[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: NewMat(%d, %d): negative dimension", r, c))
	}
	return &Mat[T]{Rows: r, Cols: c, Stride: c, Data: make([]T, r*c)}
}

// NewMatrix allocates a zeroed r×c float64 matrix.
func NewMatrix(r, c int) *Matrix { return NewMat[float64](r, c) }

// FromSlice wraps data (row-major, length r*c) as an r×c matrix without
// copying. The caller must not alias the slice elsewhere with a different
// shape in mind.
func FromSlice[T Float](r, c int, data []T) *Mat[T] {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice(%d, %d): need %d elements, got %d", r, c, r*c, len(data)))
	}
	return &Mat[T]{Rows: r, Cols: c, Stride: c, Data: data}
}

// FromRows builds a matrix from a slice of equally long rows, copying.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("tensor: FromRows: row %d has %d elements, want %d", i, len(row), c))
		}
		copy(m.RowView(i), row)
	}
	return m
}

// At returns element (i, j).
func (m *Mat[T]) At(i, j int) T {
	m.checkIndex(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Mat[T]) Set(i, j int, v T) {
	m.checkIndex(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Mat[T]) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d, %d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// RowView returns row i as a slice sharing the matrix's storage.
func (m *Mat[T]) RowView(i int) []T {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// RowsView returns rows [i, j) as a matrix view sharing storage with m.
func (m *Mat[T]) RowsView(i, j int) *Mat[T] {
	if i < 0 || j < i || j > m.Rows {
		panic(fmt.Sprintf("tensor: rows [%d, %d) out of range %d", i, j, m.Rows))
	}
	return &Mat[T]{Rows: j - i, Cols: m.Cols, Stride: m.Stride, Data: m.Data[i*m.Stride:]}
}

// IsView reports whether m shares storage laid out with gaps (stride larger
// than cols) or is a window over a larger backing slice.
func (m *Mat[T]) IsView() bool {
	return m.Stride != m.Cols || len(m.Data) != m.Rows*m.Cols
}

// Contiguous returns m if its rows are densely packed, or a packed copy.
func (m *Mat[T]) Contiguous() *Mat[T] {
	if m.Stride == m.Cols && len(m.Data) == m.Rows*m.Cols {
		return m
	}
	return m.Clone()
}

// Clone returns a packed deep copy of m.
func (m *Mat[T]) Clone() *Mat[T] {
	out := NewMat[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.RowView(i), m.RowView(i))
	}
	return out
}

// CopyFrom copies src into m; shapes must match.
func (m *Mat[T]) CopyFrom(src *Mat[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch: %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.RowView(i), src.RowView(i))
	}
}

// Zero sets every element to 0.
func (m *Mat[T]) Zero() {
	for i := 0; i < m.Rows; i++ {
		clear(m.RowView(i))
	}
}

// Fill sets every element to v.
func (m *Mat[T]) Fill(v T) {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Apply sets each element to f(element), in place, and returns m.
func (m *Mat[T]) Apply(f func(T) T) *Mat[T] {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			row[j] = f(v)
		}
	}
	return m
}

// Randomize fills m with uniform values in [lo, hi).
func (m *Mat[T]) Randomize(r *rng.RNG, lo, hi float64) *Mat[T] {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = T(r.Uniform(lo, hi))
		}
	}
	return m
}

// RandomizeNorm fills m with N(0, sigma²) values.
func (m *Mat[T]) RandomizeNorm(r *rng.RNG, sigma float64) *Mat[T] {
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = T(sigma * r.Norm())
		}
	}
	return m
}

// T returns a packed transpose copy of m.
func (m *Mat[T]) T() *Mat[T] {
	out := NewMat[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Equal reports whether a and b have the same shape and elements within tol.
func Equal[T Float](a, b *Mat[T], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.RowView(i), b.RowView(i)
		for j := range ra {
			if math.Abs(float64(ra[j]-rb[j])) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, computed in float64 — across precisions, the measure the
// cross-precision equivalence tests bound. It panics on shape mismatch.
func MaxAbsDiff[A, B Float](a *Mat[A], b *Mat[B]) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	max := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.RowView(i), b.RowView(i)
		for j := range ra {
			if d := math.Abs(float64(ra[j]) - float64(rb[j])); d > max {
				max = d
			}
		}
	}
	return max
}

// Convert copies src into dst elementwise, converting between precisions:
// narrowing rounds to nearest, widening is exact. Lengths must match. This
// is the staging boundary conversion of the serving path.
func Convert[D, S Float](dst []D, src []S) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Convert length mismatch: %d vs %d", len(dst), len(src)))
	}
	for j, v := range src {
		dst[j] = D(v)
	}
}

func convertMat[D, S Float](m *Mat[S]) *Mat[D] {
	out := NewMat[D](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		Convert(out.RowView(i), m.RowView(i))
	}
	return out
}

// To32 returns a packed float32 copy of m, rounding each element to
// nearest: the copy-on-load conversion of the reduced-precision serving
// path.
func (m *Mat[T]) To32() *Matrix32 { return convertMat[float32](m) }

// To64 returns a packed float64 copy of m (exact from float32).
func (m *Mat[T]) To64() *Matrix { return convertMat[float64](m) }

// Sum returns the sum of all elements.
func (m *Mat[T]) Sum() T {
	var s T
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.RowView(i) {
			s += v
		}
	}
	return s
}

// SumSquares returns the sum of squared elements (squared Frobenius norm).
func (m *Mat[T]) SumSquares() T {
	var s T
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.RowView(i) {
			s += v * v
		}
	}
	return s
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Mat[T]) FrobeniusNorm() T { return T(math.Sqrt(float64(m.SumSquares()))) }

// Mean returns the arithmetic mean of all elements; 0 for an empty matrix.
func (m *Mat[T]) Mean() T {
	n := m.Rows * m.Cols
	if n == 0 {
		return 0
	}
	return m.Sum() / T(n)
}

// ColMeans returns the per-column mean of m as a length-Cols vector:
// out[j] = mean_i m[i,j]. Used for the average hidden activation ρ̂ of the
// sparse autoencoder.
func (m *Mat[T]) ColMeans() []T {
	out := make([]T, m.Cols)
	if m.Rows == 0 {
		return out
	}
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		for j, v := range row {
			out[j] += v
		}
	}
	inv := 1 / T(m.Rows)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// String renders small matrices for debugging; large matrices are
// abbreviated to their shape.
func (m *Mat[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		row := m.RowView(i)
		for j, v := range row {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", v)
		}
	}
	return s + "]"
}
