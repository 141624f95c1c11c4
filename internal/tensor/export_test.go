package tensor

import "runtime"

// KernelPath names the path training's arithmetic takes in this test
// binary, for provision_test.go: "avx2" (the dense FMA kernel forward,
// prodTile64 backward), "portable" (the Go loops, unfused), or "" where
// the compiler may fuse the portable loops and no pin applies (GOAMD64
// v3 and above; arm64 and other targets).
func KernelPath() string {
	switch {
	case portableFuses || runtime.GOARCH != "amd64":
		return ""
	case hasAVX2FMA:
		return "avx2"
	}
	return "portable"
}
