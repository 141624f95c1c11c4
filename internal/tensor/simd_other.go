//go:build !amd64 || noasm

package tensor

// hasAVX2FMA is false off amd64 (or under the noasm build tag, which CI
// uses to keep the scalar fallback exercised); the portable
// unrolled-scalar kernel runs everywhere.
const hasAVX2FMA = false

// denseTile64 is never called when hasAVX2FMA is false.
func denseTile64(dst, a, b, bias, res *float64, m, n, k int, relu bool) {
	panic("tensor: denseTile64 without AVX2/FMA support")
}

// denseTile32 is never called when hasAVX2FMA is false.
func denseTile32(dst, a, b, bias, res *float32, m, n, k int, relu bool) {
	panic("tensor: denseTile32 without AVX2/FMA support")
}

// prodTile64 is never called when hasAVX2FMA is false.
func prodTile64(dst, a, b *float64, m, n, k, ars, aks int, add bool) {
	panic("tensor: prodTile64 without AVX2 support")
}

// hasAVX512 is never set here. It is a variable only so that the tests'
// kernel-path switch (export_test.go) builds everywhere.
var hasAVX512 bool

// dense512Tile64 is never called when hasAVX512 is false.
func dense512Tile64(dst, a, b, bias, res *float64, m, n, k int, relu bool) {
	panic("tensor: dense512Tile64 without AVX-512 support")
}

// dense512Tile32 is never called when hasAVX512 is false.
func dense512Tile32(dst, a, b, bias, res *float32, m, n, k int, relu bool) {
	panic("tensor: dense512Tile32 without AVX-512 support")
}

// prod512Tile64 is never called when hasAVX512 is false.
func prod512Tile64(dst, a, b *float64, m, n, k, ars, aks int, add bool) {
	panic("tensor: prod512Tile64 without AVX-512 support")
}
