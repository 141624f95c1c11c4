package tensor

import "runtime"

// cpuAVX512 is what CPUID said, kept while a test switches paths.
var cpuAVX512 = hasAVX512

// KernelPath names the path training's arithmetic takes in this test
// binary, for provision_test.go: "avx2" (the dense FMA kernel forward,
// prodTile64 backward), "avx512" (their 512-bit twins, with the same
// bits), "portable" (the Go loops, unfused), or "" where the compiler may
// fuse the portable loops and no pin applies (GOAMD64 v3 and above;
// arm64 and other targets).
func KernelPath() string {
	switch {
	case portableFuses || runtime.GOARCH != "amd64":
		return ""
	case hasAVX512:
		return "avx512"
	case hasAVX2FMA:
		return "avx2"
	}
	return "portable"
}

// KernelPaths lists, in KernelPath's names, every path this test binary
// can take on this CPU: "avx2" and, where the CPU has AVX-512, "avx512";
// "portable"; or none where KernelPath is "".
func KernelPaths() []string {
	if KernelPath() == "" {
		return nil
	}
	return kernelPaths()
}

// kernelPaths is KernelPaths for the kernels alone: the dense kernels
// are assembly, which the compiler cannot fuse, so they have a path to
// test wherever KernelPath has none.
func kernelPaths() []string {
	switch {
	case cpuAVX512:
		return []string{"avx2", "avx512"}
	case hasAVX2FMA:
		return []string{"avx2"}
	}
	return []string{"portable"}
}

// UseKernelPath makes the kernels take path, one of KernelPaths (or
// kernelPaths), until the next call. It switches a package variable: a
// test that calls it must not run in parallel with one that computes.
func UseKernelPath(path string) { hasAVX512 = path == "avx512" }

// onEachPath runs f as a subtest (or sub-benchmark) per kernel path this
// CPU has, named for it, and leaves the path as it found it. On a CPU
// without AVX-512 the avx512 one is skipped, and says so.
func onEachPath[R interface {
	Run(string, func(R)) bool
	Skip(...any)
}](r R, f func(R)) {
	defer func(was bool) { hasAVX512 = was }(hasAVX512)
	for _, path := range kernelPaths() {
		UseKernelPath(path)
		r.Run(path, f)
	}
	if hasAVX2FMA && !cpuAVX512 {
		r.Run("avx512", func(r R) { r.Skip(noAVX512) })
	}
}

// noAVX512 is the skip message of a test of the 512-bit path.
const noAVX512 = "this CPU has no AVX-512 F and VL (or the OS does not save ZMM state): the 512-bit kernels do not run here"
