//go:build amd64.v3

package tensor

// At GOAMD64=v3 the compiler may fuse x*y + z (see product_test.go).
func init() { portableFuses = true }
