package tensor

import (
	"fmt"
	"math"
)

// Float32 inference kernels. Training stays in float64 (gradient noise
// compounds across epochs), but the serving forward pass tolerates — and
// profits from — single precision: AVX2 fits 8 float32 lanes per ymm
// register instead of 4, and every weight and activation byte moved
// through the cache hierarchy is halved. These kernels back the frozen
// inference models (nn.Compile32 / staged.Freeze32); they mirror the
// float64 kernels' shapes, panics, and destination-buffer discipline.

// Matrix32 is a dense row-major matrix of float32 values, the serving-
// precision counterpart of Matrix.
type Matrix32 struct {
	Rows int
	Cols int
	Data []float32
}

// NewMatrix32 allocates a zeroed rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view (not a copy) of row r.
func (m *Matrix32) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// String renders a compact description, useful in test failures.
func (m *Matrix32) String() string {
	return fmt.Sprintf("Matrix32(%dx%d)", m.Rows, m.Cols)
}

// Ensure32 returns m reshaped to rows×cols, reusing its backing array
// when capacity allows, otherwise a new matrix. Callers must overwrite
// every element of the result: stale data is not cleared.
//eugene:noalloc
func Ensure32(m *Matrix32, rows, cols int) *Matrix32 {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	if m != nil && cap(m.Data) >= rows*cols {
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
		return m
	}
	return NewMatrix32(rows, cols)
}

// Widen copies src into dst, converting float32 → float64; lengths must
// match. The stage-boundary up-conversion of the f32 serving path.
//eugene:noalloc
func Widen(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Widen length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// Narrow copies src into dst, converting float64 → float32; lengths must
// match. The stage-boundary down-conversion of the f32 serving path.
//eugene:noalloc
func Narrow(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Narrow length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// MatMulT32 computes dst = a·bᵀ, the float32 counterpart of MatMulT
// (weights stored out×in, one weight row per output neuron). Rows of a
// are processed in register tiles of four so each weight row is
// streamed once per four batch samples; with AVX2+FMA the inner loop
// runs 8 lanes per register — twice the float64 kernel's width — via
// dot4FMA32. Large products split their rows by the same rule and over
// the same helpers as the float64 GEMM (tile-aligned splits, so the
// result is bitwise identical to serial).
//eugene:noalloc
func MatMulT32(dst, a, b *Matrix32) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT32 shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT32 dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	fanOut(gemmJob{run: runMatMulT32, dst32: dst, a32: a, b32: b}, a.Rows, a.Rows*b.Rows*a.Cols)
}

// matMulT32Range runs the MatMulT32 kernel over rows [lo, hi) of a/dst.
//eugene:noalloc
func matMulT32Range(dst, a, b *Matrix32, lo, hi int) {
	n := a.Cols
	n16 := 0
	if hasAVX2FMA {
		n16 = n &^ 15
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i)[:n], a.Row(i + 1)[:n], a.Row(i + 2)[:n], a.Row(i + 3)[:n]
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)[:n]
			var s0, s1, s2, s3 float32
			k := 0
			if n16 > 0 {
				s0, s1, s2, s3 = dot4FMA32(&a0[0], &a1[0], &a2[0], &a3[0], &brow[0], n16)
				k = n16
			}
			for ; k < n; k++ {
				bk := brow[k]
				s0 += a0[k] * bk
				s1 += a1[k] * bk
				s2 += a2[k] * bk
				s3 += a3[k] * bk
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] = dotUnrolled32(arow, b.Row(j))
		}
	}
}

// dotUnrolled32 is the 4-way unrolled float32 inner-product kernel; four
// independent accumulators break the add-latency chain. Lengths must
// match (callers check).
func dotUnrolled32(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot32 returns the inner product of a and b (lengths must match).
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot32 length mismatch %d vs %d", len(a), len(b)))
	}
	return dotUnrolled32(a, b)
}

// Axpy32 computes dst[i] += alpha*src[i] with a 4-way unrolled loop;
// lengths must match.
func Axpy32(dst []float32, alpha float32, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Axpy32 length mismatch %d vs %d", len(dst), len(src)))
	}
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// Add32 computes dst[i] = a[i] + b[i] element-wise; shapes must match.
// dst may alias a or b.
func Add32(dst, a, b *Matrix32) {
	checkSameShape32("Add32", a, b)
	checkSameShape32("Add32", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// AddReLU32 computes dst[i] = max(0, a[i]+b[i]) element-wise — the fused
// shortcut-connection + activation kernel of the f32 path. dst may alias
// a or b.
func AddReLU32(dst, a, b *Matrix32) {
	checkSameShape32("AddReLU32", a, b)
	checkSameShape32("AddReLU32", dst, a)
	for i := range a.Data {
		s := a.Data[i] + b.Data[i]
		if s < 0 {
			s = 0
		}
		dst.Data[i] = s
	}
}

// AddRowVector32 adds vector v (length m.Cols) to every row of m in
// place; the standard bias broadcast.
func AddRowVector32(m *Matrix32, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector32 vector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v[c]
		}
	}
}

// AddRowVectorReLU32 adds vector v (length m.Cols) to every row of m and
// applies ReLU in place: m[r][c] = max(0, m[r][c]+v[c]). The fused
// bias+activation kernel behind the Dense→ReLU pairs dominating the
// frozen forward path.
func AddRowVectorReLU32(m *Matrix32, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVectorReLU32 vector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			s := row[c] + v[c]
			if s < 0 {
				s = 0
			}
			row[c] = s
		}
	}
}

// ReLU32 applies max(0, src[i]) element-wise into dst; shapes must
// match. dst may alias src.
func ReLU32(dst, src *Matrix32) {
	checkSameShape32("ReLU32", dst, src)
	for i, v := range src.Data {
		if v < 0 {
			v = 0
		}
		dst.Data[i] = v
	}
}

// Softmax32Into writes the row-wise softmax of the float32 logits into
// the float64 probability matrix (shapes must match). The exponentials
// and normalization run in float64: confidences feed the scheduler's
// early-exit comparisons, so the f32 path spends the few extra cycles
// here to keep its confidence surface as close to the f64 model's as the
// f32 logits allow.
//eugene:noalloc
func Softmax32Into(dst *Matrix, src *Matrix32) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: Softmax32Into shape mismatch %dx%d vs %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for r := 0; r < src.Rows; r++ {
		in := src.Row(r)
		out := dst.Row(r)
		maxv := in[0]
		for _, v := range in[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for c, v := range in {
			e := math.Exp(float64(v - maxv))
			out[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range out {
			out[c] *= inv
		}
	}
}

func checkSameShape32(op string, a, b *Matrix32) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
