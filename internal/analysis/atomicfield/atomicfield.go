// Package atomicfield enforces the scheduler's atomic-access
// discipline: once any code passes a struct field (or package-level
// variable) to a sync/atomic operation, every other access to that
// location must also go through sync/atomic. The deadline daemon's
// dead flags and the serving counters in internal/sched rely on
// exactly this invariant — one forgotten raw load turns "expiry never
// contends with dispatch" into a data race the race detector only
// catches when the interleaving happens to occur in a test run.
package atomicfield

import (
	"go/ast"
	"go/types"

	"eugene/internal/analysis"
)

// Analyzer flags mixed atomic/non-atomic access to the same location.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: `report non-atomic access to fields used with sync/atomic

A struct field or package-level variable whose address is passed to a
sync/atomic function anywhere in the package must be read and written
through sync/atomic everywhere: mixing atomic and plain access is a
data race. Fields of type atomic.Int64, atomic.Bool, etc. are immune
by construction and not checked.`,
	Run: run,
}

// atomicAddrFuncs are the sync/atomic functions whose first argument
// is the address of the guarded location.
var atomicAddrFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func run(pass *analysis.Pass) (any, error) {
	// Pass 1: collect the locations accessed atomically and the
	// positions of those sanctioned accesses.
	atomicObjs := map[types.Object]bool{}
	sanctioned := map[ast.Node]bool{} // the &x.f operand of an atomic call
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !isAtomicCall(pass, call) {
				return true
			}
			un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok {
				return true
			}
			if obj := addressedObject(pass, un.X); obj != nil {
				atomicObjs[obj] = true
				sanctioned[ast.Unparen(un.X)] = true
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return nil, nil
	}
	// Pass 2: every other access to those locations is a violation.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if sanctioned[e] {
					return false
				}
				if obj := selectedField(pass, e); obj != nil && atomicObjs[obj] {
					pass.Reportf(e.Sel.Pos(), "non-atomic access to %s, which is accessed with sync/atomic elsewhere", obj.Name())
					return false
				}
			case *ast.Ident:
				if sanctioned[e] {
					return false
				}
				if obj := pass.TypesInfo.Uses[e]; obj != nil && atomicObjs[obj] && isPackageVar(obj) {
					pass.Reportf(e.Pos(), "non-atomic access to %s, which is accessed with sync/atomic elsewhere", obj.Name())
					return false
				}
			}
			return true
		})
	}
	return nil, nil
}

// isAtomicCall reports whether call invokes a sync/atomic
// address-taking function.
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !atomicAddrFuncs[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// addressedObject resolves &expr's guarded location: a struct field or
// a package-level variable.
func addressedObject(pass *analysis.Pass, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return selectedField(pass, e)
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil && isPackageVar(obj) {
			return obj
		}
	}
	return nil
}

// selectedField returns the struct-field object a selector denotes, or
// nil for method values, qualified identifiers, and package vars
// reached through imports.
func selectedField(pass *analysis.Pass, sel *ast.SelectorExpr) types.Object {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}

// isPackageVar reports whether obj is a package-level variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Parent() == v.Pkg().Scope()
}
