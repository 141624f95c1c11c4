package tensor

import (
	"math"
	"math/bits"
)

// laneBlock is how many elements one call of an exp or log lane kernel
// takes: its bad-lane mask is one uint64.
const laneBlock = 64

// expInPlace replaces every element of d with its math.Exp, bit for bit
// on every path. With AVX2 and FMA the kernels compute archExp's FMA
// branch (the one math.Exp takes on such a CPU) in SIMD lanes, and a
// lane the kernel marks — NaN, ±Inf, or an input whose result
// overflows or goes denormal — is recomputed by math.Exp itself; the
// portable path is math.Exp element by element.
//
//eugene:noalloc
func expInPlace(d []float64) {
	if !hasAVX2FMA {
		for i, v := range d {
			d[i] = math.Exp(v)
		}
		return
	}
	for lo := 0; lo < len(d); lo += laneBlock {
		b := d[lo:min(lo+laneBlock, len(d))]
		var bad uint64
		if hasAVX512 {
			bad = exp512Lanes(&b[0], len(b))
		} else {
			bad = expLanes(&b[0], len(b))
		}
		for ; bad != 0; bad &= bad - 1 {
			i := bits.TrailingZeros64(bad)
			b[i] = math.Exp(b[i])
		}
	}
}

// LogFloor sets dst[i] = math.Log(math.Max(src[i], floor)), bit for bit
// on every path; lengths must match, and dst may be src. floor = 1e-12
// gives the clamped logs of Eq. 4's entropy gradient, and −Inf plain
// math.Log. With AVX2 and FMA the kernels compute archLog's sequence
// (the one math.Log takes on amd64) in SIMD lanes for every src[i] that
// is normal, finite and at least floor; any other lane — zero, a
// negative, a subnormal, NaN, ±Inf, or an input below floor — goes
// through the scalar expression. The portable path is that expression
// element by element.
//
//eugene:noalloc
func LogFloor(dst, src []float64, floor float64) {
	dst = dst[:len(src)]
	if !hasAVX2FMA {
		for i, v := range src {
			dst[i] = math.Log(math.Max(v, floor))
		}
		return
	}
	lo := max(floor, 0x1p-1022) // the kernels take normal inputs only
	for off := 0; off < len(src); off += laneBlock {
		s := src[off:min(off+laneBlock, len(src))]
		d := dst[off : off+len(s)]
		var bad uint64
		if hasAVX512 {
			bad = log512Lanes(&d[0], &s[0], len(s), lo)
		} else {
			bad = logLanes(&d[0], &s[0], len(s), lo)
		}
		for ; bad != 0; bad &= bad - 1 {
			i := bits.TrailingZeros64(bad)
			d[i] = math.Log(math.Max(s[i], floor))
		}
	}
}
