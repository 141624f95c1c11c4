package svc

import (
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// Serve is float64-only API: fine anywhere.
func Serve(x []float64) []float64 { return x }

func Widen32(x []float32) []float64 { return nil } // want `exported Widen32 has float32 in its signature`

type Config struct {
	Rate  float64
	Gains []float32 // want `exported field Config.Gains has type containing float32`
}

type Kernel32 func([]float32) // want `exported type Kernel32 is defined in terms of float32`

var Table []float32 // want `exported Table has type containing float32`

// Unexported API may use float32 freely: conversions at the boundary
// happen inside unexported helpers.
func narrow(x []float64) []float32 { return nil }

type scratch struct{ f []float32 }

// Methods on unexported types are not public API.
func (s *scratch) Apply(x []float32) {}

var _ = narrow

// The inference engine's types are generic over the element type, so a
// tier type is recognised by what it is instantiated at, under any
// alias, not by a "32" in its name.
func ServeMat(m *tensor.Mat[float32]) {} // want `exported ServeMat has tensor.Mat\[float32\] in its signature`

func ServeAlias(m *tensor.Matrix32) {} // want `exported ServeAlias has tensor.Mat\[float32\] in its signature`

func Pool() []*staged.Frozen[float32] { return nil } // want `exported Pool has staged.Frozen\[float32\] in its signature`

func PoolAlias() *staged.Frozen32 { return nil } // want `exported PoolAlias has staged.Frozen\[float32\] in its signature`

type Tier = staged.Frozen32 // want `exported type Tier is an alias of staged.Frozen\[float32\]`

// An open type parameter admits float32.
func ServeAny[T tensor.Float](m *tensor.Mat[T]) {} // want `exported ServeAny has tensor.Mat\[T\] in its signature`

// The float64 instantiations are ordinary API.
func ServeF64(m *tensor.Mat[float64], n *tensor.Matrix) *staged.Frozen[float64] { return nil }

type Engine = staged.Frozen[float64]
