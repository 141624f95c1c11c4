// Package atomicfield keeps the repo's atomics typed. A shared counter
// or flag is an atomic.Int64, atomic.Bool, atomic.Pointer[T] and so on,
// whose every access is atomic by construction. A sync/atomic function
// such as atomic.AddInt64(&x.n, 1) makes only its own access atomic:
// one plain read of x.n elsewhere is a data race that the race detector
// catches only when a test happens to run both sides at once. Banning
// the functions makes mixed access impossible rather than detected.
package atomicfield

import (
	"go/ast"
	"go/types"

	"eugene/internal/analysis"
)

// Analyzer flags every use of a sync/atomic package-level function.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: `report uses of sync/atomic package-level functions

AddInt64, LoadUint32, StorePointer, CompareAndSwap* and the rest make
only the access they perform atomic, so a plain access to the same
location elsewhere is a data race. Use the typed atomics (atomic.Int64,
atomic.Bool, atomic.Pointer[T], ...), whose methods are the only way in.
Functions are resolved through the type checker, so an import alias or
a dot import does not hide them.`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(id.Pos(), "atomic.%s makes only this access atomic; use a typed atomic (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...) so that every access is", fn.Name())
			}
			return true
		})
	}
	return nil, nil
}
