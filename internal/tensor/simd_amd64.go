//go:build amd64 && !noasm

package tensor

// hasAVX2FMA gates the AVX2+FMA micro-kernels behind runtime CPU
// detection: the CPU must advertise FMA and AVX2, and the OS must have
// enabled XMM/YMM state saving (OSXSAVE + XCR0 bits 1–2). When false,
// the portable unrolled-scalar kernels run instead.
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

// hasAVX512 picks the 512-bit kernels (dense512Tile64, dense512Tile32,
// prod512Tile64) over the AVX2 ones they give the bits of: on top of
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

// denseTile64 is the AVX2+FMA dense micro-kernel: for the m rows of a
// (1 ≤ m ≤ 3) and all n rows of b, each k long and contiguous,
//
//	dst[r·n+j] = Σ_k a[r·k+kk]·b[j·k+kk] + bias[j] + res[r·n+j]
//
// floored at zero when relu is set; bias and res may be nil, and res is
// not dst. n and k are at least 1. The loop over b's rows runs inside,
// four at a time; every output is one FMA chain over k folded in one
// fixed order, so it has the same bits whatever m it was computed at
// (simd_amd64.s has the layout).
//
//go:noescape
func denseTile64(dst, a, b, bias, res *float64, m, n, k int, relu bool)

// denseTile32 is denseTile64 in float32: 8 lanes to the register, so
// half the k steps for the same loads and FMAs — the arithmetic half of
// what the float32 serving tier buys (the other is halved weight
// traffic).
//
//go:noescape
func denseTile32(dst, a, b, bias, res *float32, m, n, k int, relu bool)

// prodTile64 is the training products' AVX2 micro-kernel: for the m rows
// of a dst tile (1 ≤ m ≤ 3) and all n columns,
//
//	s = Σ_k a[r·ars+kk·aks]·b[kk·n+j]
//
// summed from zero in ascending k, one multiply and one add per term and
// no FMA, and then stored to dst[r·n+j] — or, when add is set, added to
// it with one more add. Every output has the bits of the portable loops
// (matMulPortable, tMatMulPortable). n and k are at least 1
// (simd_amd64.s has the layout).
//
//go:noescape
func prodTile64(dst, a, b *float64, m, n, k, ars, aks int, add bool)

// dense512Tile64 is denseTile64 on AVX-512, bit for bit: for 2 ≤ m ≤ 6
// rows of a and n ≥ 8 rows of b, each zmm accumulator runs two of
// denseTile64's chains — rows 2p and 2p+1 against one b row, one per
// 256-bit half — and every chain is folded by denseTile64's own
// instructions (simd_amd64.s has the layout).
//
//go:noescape
func dense512Tile64(dst, a, b, bias, res *float64, m, n, k int, relu bool)

// dense512Tile32 is dense512Tile64 in float32, denseTile32's bits.
//
//go:noescape
func dense512Tile32(dst, a, b, bias, res *float32, m, n, k int, relu bool)

// prod512Tile64 is prodTile64 on AVX-512, bit for bit: 32 columns to a
// group instead of 16, the same multiply and add per term.
//
//go:noescape
func prod512Tile64(dst, a, b *float64, m, n, k, ars, aks int, add bool)
