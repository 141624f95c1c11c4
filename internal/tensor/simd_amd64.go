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

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// denseTile64 is the AVX2+FMA dense micro-kernel: for the m rows of a
// (1 ≤ m ≤ 3) and all n rows of b, each k long and contiguous,
//
//	dst[r·n+j] = Σ_k a[r·k+kk]·b[j·k+kk] + bias[j]
//
// floored at zero when relu is set; bias may be nil. n and k are at
// least 1. The loop over b's rows runs inside, four at a time; every
// output is one FMA chain over k folded in one fixed order, so it has
// the same bits whatever m it was computed at (simd_amd64.s has the
// layout).
//
//go:noescape
func denseTile64(dst, a, b, bias *float64, m, n, k int, relu bool)

// denseTile32 is denseTile64 in float32: 8 lanes to the register, so
// half the k steps for the same loads and FMAs — the arithmetic half of
// what the float32 serving tier buys (the other is halved weight
// traffic).
//
//go:noescape
func denseTile32(dst, a, b, bias *float32, m, n, k int, relu bool)

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
