package tensor

import "runtime"

// cpuAVX2 and cpuAVX512 are what CPUID said, kept while a test switches
// paths.
var cpuAVX2, cpuAVX512 = hasAVX2FMA, hasAVX512

// KernelPath names the path training's arithmetic takes in this test
// binary, for provision_test.go: "avx2" (the AVX2 kernels), "avx512"
// (their 512-bit twins), "portable" (the Go loops), or "" where the
// compiler may fuse the portable products' multiply-adds and no pin
// applies (GOAMD64 v3 and above; arm64 and other targets). All three
// paths give the same bits.
func KernelPath() string {
	if portableFuses || runtime.GOARCH != "amd64" {
		return ""
	}
	return currentPath()
}

// currentPath is the path the kernels take now.
func currentPath() string {
	switch {
	case hasAVX512:
		return "avx512"
	case hasAVX2FMA:
		return "avx2"
	}
	return "portable"
}

// KernelPaths lists, in KernelPath's names, every path this test binary
// can take on this CPU: "portable" and, where the CPU has them, "avx2"
// and "avx512"; or none where KernelPath is "".
func KernelPaths() []string {
	if KernelPath() == "" {
		return nil
	}
	return kernelPaths()
}

// kernelPaths is KernelPaths for the kernels alone: the dense kernel's
// Go form is math.FMA, which the compiler cannot split, so it has a path
// to test wherever KernelPath has none.
func kernelPaths() []string {
	paths := []string{"portable"}
	if cpuAVX2 {
		paths = append(paths, "avx2")
	}
	if cpuAVX512 {
		paths = append(paths, "avx512")
	}
	return paths
}

// UseKernelPath makes the kernels take path, one of KernelPaths (or
// kernelPaths), until the next call. It switches package variables: a
// test that calls it must not run in parallel with one that computes.
func UseKernelPath(path string) {
	hasAVX2FMA = path != "portable" && cpuAVX2
	hasAVX512 = path == "avx512"
}

// onEachPath runs f as a subtest (or sub-benchmark) per kernel path this
// CPU has, named for it, and leaves the path as it found it. On a CPU
// without AVX-512 the avx512 one is skipped, and says so.
func onEachPath[R interface {
	Run(string, func(R)) bool
	Skip(...any)
}](r R, f func(R)) {
	defer UseKernelPath(currentPath())
	for _, path := range kernelPaths() {
		UseKernelPath(path)
		r.Run(path, f)
	}
	if cpuAVX2 && !cpuAVX512 {
		r.Run("avx512", func(r R) { r.Skip(noAVX512) })
	}
}

// noAVX512 is the skip message of a test of the 512-bit path.
const noAVX512 = "this CPU has no AVX-512 F and VL (or the OS does not save ZMM state): the 512-bit kernels do not run here"
