//go:build amd64 && !noasm

package tensor

// hasAVX2FMA gates the AVX2+FMA micro-kernels behind runtime CPU
// detection: the CPU must advertise FMA and AVX2, and the OS must have
// enabled XMM/YMM state saving (OSXSAVE + XCR0 bits 1–2). When false,
// the portable Go kernels run instead, with the same bits (MatMulT, the
// benchmark's GEMM rung, aside). Only the tests switch it
// (export_test.go), to run every path on one CPU.
var hasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// hasAVX512 picks the 512-bit kernels (outer512Tile64, outer512Tile32,
// dot512Tile64, dot512Tile32, prod512Tile64) over the AVX2 ones they
// give the bits of: on top of
// AVX2+FMA the CPU must advertise AVX-512 F and VL, and the OS must have
// enabled opmask and ZMM state saving (XCR0 bits 5–7). Only the tests
// switch it (export_test.go), to run both paths on one CPU.
var hasAVX512 = hasAVX2FMA && detectAVX512()

func detectAVX512() bool {
	if eax, _ := xgetbv(); eax&0xe6 != 0xe6 { // XMM, YMM, opmask, ZMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		avx512f  = 1 << 16
		avx512vl = 1 << 31
	)
	return ebx7&avx512f != 0 && ebx7&avx512vl != 0
}

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// outerTile64 is the AVX2+FMA dense micro-kernel: for the m rows of a
// (1 ≤ m ≤ 6, row stride k) and one block of cols ≤ 8 columns of w (row
// stride n, k rows),
//
//	dst[r·n+j] = floor((Σ_k a[r·k+kk]·w[kk·n+j] + bias[j]) + res[r·n+j])
//
// summed from +0 in ascending k, one FMA per term, with floor the relu
// floor (a NaN or -0 sum passes) or none; bias and res may be nil, and
// res is not dst. k is at least 1. Every output is one chain in one
// lane, so it has denseScalar's bits (simd_amd64.s has the layout).
//
//go:noescape
func outerTile64(dst, a, w, bias, res *float64, m, n, k, cols int, relu bool)

// outerTile32 is outerTile64 in float32, on blocks of 16 columns.
//
//go:noescape
func outerTile32(dst, a, w, bias, res *float32, m, n, k, cols int, relu bool)

// outer512Tile64 is outerTile64 on AVX-512, on blocks of 32 columns.
//
//go:noescape
func outer512Tile64(dst, a, w, bias, res *float64, m, n, k, cols int, relu bool)

// outer512Tile32 is outerTile32 on AVX-512, on blocks of 64 columns.
//
//go:noescape
func outer512Tile32(dst, a, w, bias, res *float32, m, n, k, cols int, relu bool)

// dotTile64 is MatMulT's AVX2+FMA micro-kernel: for the m rows of a
// (1 ≤ m ≤ 3) and all n rows of b, each k long and contiguous,
//
//	dst[r·n+j] = Σ_k a[r·k+kk]·b[j·k+kk]
//
// with element kk in lane kk mod 4 of one FMA chain, the lanes folded as
// (l0+l1)+(l2+l3) and +0 added. The loop over b's rows runs inside,
// four at a time. n and k are at least 1 (simd_amd64.s has
// the layout).
//
//go:noescape
func dotTile64(dst, a, b *float64, m, n, k int)

// dotTile32 is dotTile64 in float32: 8 lanes to the register, folded
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
//
//go:noescape
func dotTile32(dst, a, b *float32, m, n, k int)

// prodTile64 is the training products' AVX2 micro-kernel: for the m rows
// of a dst tile (1 ≤ m ≤ 3) and all n columns,
//
//	s = Σ_k a[r·ars+kk·aks]·b[kk·n+j]
//
// summed from zero in ascending k, one multiply and one add per term and
// no FMA, and then stored to dst[r·n+j] — or, when add is set, added to
// it with one more add. Every output has the bits of the portable loop
// (tMatMulPortable). n and k are at least 1 (simd_amd64.s has the
// layout).
//
//go:noescape
func prodTile64(dst, a, b *float64, m, n, k, ars, aks int, add bool)

// dot512Tile64 is dotTile64 on AVX-512, bit for bit: for 2 ≤ m ≤ 6
// rows of a and n ≥ 8 rows of b, each zmm accumulator runs two of
// dotTile64's chains — rows 2p and 2p+1 against one b row, one per
// 256-bit half — and every chain is folded by dotTile64's own
// instructions (simd_amd64.s has the layout).
//
//go:noescape
func dot512Tile64(dst, a, b *float64, m, n, k int)

// dot512Tile32 is dot512Tile64 in float32, dotTile32's bits.
//
//go:noescape
func dot512Tile32(dst, a, b *float32, m, n, k int)

// prod512Tile64 is prodTile64 on AVX-512, bit for bit: 32 columns to a
// group instead of 16, the same multiply and add per term; a last group
// of at most 24 columns (the input gradient's batch of 20) runs only the
// ⌈w/8⌉ vectors it needs.
//
//go:noescape
func prod512Tile64(dst, a, b *float64, m, n, k, ars, aks int, add bool)

// transposeBlocks64 is Transpose's AVX2 kernel: dst[c·dstStride+r] =
// src[r·srcStride+c] for r < rows and c < cols, both positive multiples
// of 4, in 4×4 register blocks (simd_amd64.s has the layout).
//
//go:noescape
func transposeBlocks64(dst, src *float64, rows, cols, dstStride, srcStride int)

// sumSquaresStrips64 is SumSquaresByColumn's AVX2 kernel over the first
// 8·strips columns of src, a rows × stride row-major matrix, with rows a
// positive multiple of 4 and a and b scratch buffers of 8·rows elements
// each (simd_amd64.s has the layout).
//
//go:noescape
func sumSquaresStrips64(sum float64, src *float64, rows, strips, stride int, a, b *float64) float64

// expLanes sets d[i] = math.Exp(d[i]) for i < n, 1 ≤ n ≤ 64, with
// archExp's FMA branch in four lanes, and returns the lanes it left for
// the scalar call (bit i: d[i] still holds its input) — those whose
// exponent leaves the normal range (lanes_amd64.s has the rule).
//
//go:noescape
func expLanes(d *float64, n int) (bad uint64)

// exp512Lanes is expLanes in eight lanes, on AVX-512.
//
//go:noescape
func exp512Lanes(d *float64, n int) (bad uint64)

// logLanes sets dst[i] = math.Log(src[i]) for i < n, 1 ≤ n ≤ 64, with
// archLog's sequence in four lanes, for every src[i] with lo ≤ src[i] <
// +Inf (lo at least the smallest normal), and returns the others' bits:
// dst[i] holds src[i] there. dst is src or does not overlap it.
//
//go:noescape
func logLanes(dst, src *float64, n int, lo float64) (bad uint64)

// log512Lanes is logLanes in eight lanes, on AVX-512.
//
//go:noescape
func log512Lanes(dst, src *float64, n int, lo float64) (bad uint64)
