//go:build !amd64 || noasm

package tensor

// hasAVX2FMA and hasAVX512 are false off amd64 (or under the noasm
// build tag, which CI uses to keep the portable loops exercised): the
// portable kernels run everywhere. They are variables only so that the
// tests' kernel-path switch (export_test.go) builds everywhere.
var hasAVX2FMA, hasAVX512 bool

// The kernels below are never called when hasAVX2FMA is false.

func outerTile64(dst, a, w, bias, res *float64, m, n, k, cols int, relu bool) {
	panic("tensor: outerTile64 without AVX2/FMA support")
}

func outerTile32(dst, a, w, bias, res *float32, m, n, k, cols int, relu bool) {
	panic("tensor: outerTile32 without AVX2/FMA support")
}

func outer512Tile64(dst, a, w, bias, res *float64, m, n, k, cols int, relu bool) {
	panic("tensor: outer512Tile64 without AVX-512 support")
}

func outer512Tile32(dst, a, w, bias, res *float32, m, n, k, cols int, relu bool) {
	panic("tensor: outer512Tile32 without AVX-512 support")
}

func dotTile64(dst, a, b *float64, m, n, k int) {
	panic("tensor: dotTile64 without AVX2/FMA support")
}

func dotTile32(dst, a, b *float32, m, n, k int) {
	panic("tensor: dotTile32 without AVX2/FMA support")
}

func dot512Tile64(dst, a, b *float64, m, n, k int) {
	panic("tensor: dot512Tile64 without AVX-512 support")
}

func dot512Tile32(dst, a, b *float32, m, n, k int) {
	panic("tensor: dot512Tile32 without AVX-512 support")
}

func prodTile64(dst, a, b *float64, m, n, k, ars, aks int, add bool) {
	panic("tensor: prodTile64 without AVX2 support")
}

func prod512Tile64(dst, a, b *float64, m, n, k, ars, aks int, add bool) {
	panic("tensor: prod512Tile64 without AVX-512 support")
}

func transposeBlocks64(dst, src *float64, rows, cols, dstStride, srcStride int) {
	panic("tensor: transposeBlocks64 without AVX2 support")
}

func sumSquaresStrips64(sum float64, src *float64, rows, strips, stride int, a, b *float64) float64 {
	panic("tensor: sumSquaresStrips64 without AVX2 support")
}

func expLanes(d *float64, n int) uint64 {
	panic("tensor: expLanes without AVX2/FMA support")
}

func exp512Lanes(d *float64, n int) uint64 {
	panic("tensor: exp512Lanes without AVX-512 support")
}

func logLanes(dst, src *float64, n int, lo float64) uint64 {
	panic("tensor: logLanes without AVX2/FMA support")
}

func log512Lanes(dst, src *float64, n int, lo float64) uint64 {
	panic("tensor: log512Lanes without AVX-512 support")
}
