// Package hotpathalloc enforces the //eugene:noalloc annotation: a
// function whose doc comment carries the marker promises a
// steady-state allocation-free body, and this analyzer flags the
// constructs that obviously break that promise — unguarded make/new,
// slice and map literals, &struct{} pointer literals, appends to nil
// slices, variable-capturing closures, fmt calls, and explicit
// conversions to interface types.
//
// The arena idioms the scheduler's hot paths are built on stay legal:
// a construct inside an if whose condition tests len/cap or compares
// against nil is an amortized growth or pool-miss path, not a per-call
// allocation (`if t == nil { t = &task{} }`, `if cap(buf) < n { buf =
// make(...) }`), appends into resliced scratch (`append(ws.group[:0],
// ...)`) reuse existing capacity, plain (non-pointer) struct literals
// stay on the stack, and fmt inside panic is a failure path.
//
// The static check is backed by testing.AllocsPerRun tier-1 tests on
// the same functions (see internal/sched and internal/staged alloc
// tests); this analyzer catches the regression at vet time, the tests
// catch what escape analysis decides at run time.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"eugene/internal/analysis"
)

// Analyzer reports allocating constructs in //eugene:noalloc
// functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: `report allocating constructs in functions annotated //eugene:noalloc

Flags make/new, slice/map composite literals, &struct literals, appends
to nil slices, capturing closures, fmt calls, and explicit interface
conversions — except under len/cap/nil guards (amortized growth and
pool-miss paths) and fmt inside panic (failure path).`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isNoalloc(fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// isNoalloc reports whether the function's doc comment carries the
// //eugene:noalloc marker.
func isNoalloc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == "eugene:noalloc" || strings.HasPrefix(text, "eugene:noalloc ") {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	nilDeclared := nilDeclaredVars(pass, fd)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, fd, n, name, nilDeclared, stack)
		case *ast.CompositeLit:
			checkCompositeLit(pass, n, name, stack)
		case *ast.FuncLit:
			if captures(pass, fd, n) {
				pass.Reportf(n.Pos(), "%s is //eugene:noalloc but this closure captures variables and allocates", name)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, name string, nilDeclared map[types.Object]bool, stack []ast.Node) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin)
		if !ok {
			// A conversion spelled with a bare identifier (e.g. any(x)).
			checkConversion(pass, call, name, stack)
			return
		}
		switch b.Name() {
		case "make":
			if !guarded(stack) {
				pass.Reportf(call.Pos(), "%s is //eugene:noalloc but calls make outside a len/cap/nil guard", name)
			}
		case "new":
			if !guarded(stack) {
				pass.Reportf(call.Pos(), "%s is //eugene:noalloc but calls new outside a len/cap/nil guard", name)
			}
		case "append":
			if len(call.Args) == 0 {
				return
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && nilDeclared[obj] && !guarded(stack) {
					pass.Reportf(call.Pos(), "%s is //eugene:noalloc but appends to the nil-declared slice %s (every element allocates); reslice reused scratch instead", name, id.Name)
				}
			}
		}
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok {
			checkConversion(pass, call, name, stack)
			return
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && !inPanic(stack) {
			pass.Reportf(call.Pos(), "%s is //eugene:noalloc but calls fmt.%s (formats and allocates); fmt is only allowed inside panic", name, fn.Name())
		}
	default:
		checkConversion(pass, call, name, stack)
	}
}

// checkConversion reports explicit conversions to interface types,
// which box their operand.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, name string, stack []ast.Node) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	if !isInterface(tv.Type) {
		return
	}
	argT := pass.TypesInfo.TypeOf(call.Args[0])
	if argT == nil || isInterface(argT) || guarded(stack) || inPanic(stack) {
		return
	}
	pass.Reportf(call.Pos(), "%s is //eugene:noalloc but converts to an interface type (boxes the value)", name)
}

// isInterface reports whether values of type t are interface values.
// go/types counts a type parameter among the interface types; a value
// of one (T(v) in a generic kernel) is a concrete value.
func isInterface(t types.Type) bool {
	_, isParam := types.Unalias(t).(*types.TypeParam)
	return !isParam && types.IsInterface(t)
}

func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, name string, stack []ast.Node) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		if !guarded(stack) && !inPanic(stack) {
			pass.Reportf(lit.Pos(), "%s is //eugene:noalloc but builds a slice or map literal", name)
		}
	case *types.Struct:
		// A plain struct literal lives on the stack; only taking its
		// address makes it escape-prone.
		if addressed(lit, stack) && !guarded(stack) && !inPanic(stack) {
			pass.Reportf(lit.Pos(), "%s is //eugene:noalloc but allocates with &%s{...}", name, types.TypeString(t, types.RelativeTo(pass.Pkg)))
		}
	}
}

// addressed reports whether lit's direct parent is the & operator.
func addressed(lit *ast.CompositeLit, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	u, ok := stack[len(stack)-2].(*ast.UnaryExpr)
	return ok && u.Op == token.AND && ast.Unparen(u.X) == lit
}

// guarded reports whether any enclosing if condition tests len or cap
// or compares against nil — the amortized-growth / pool-miss shapes.
func guarded(stack []ast.Node) bool {
	for _, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condIsCapacityGuard(ifStmt.Cond) {
			return true
		}
	}
	return false
}

func condIsCapacityGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				found = true
			}
		case *ast.Ident:
			if n.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}

// inPanic reports whether the innermost enclosing call on the stack is
// panic — allocations on the failure path are not serving-path
// allocations.
func inPanic(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
	}
	return false
}

// nilDeclaredVars collects local slice variables declared without an
// initializer (`var x []T`): appending to one grows from zero and
// allocates on every call. A variable later reassigned to anything but
// its own append (`dst = ws.dst[:0]`) no longer starts nil and is
// dropped — that is the reslice-scratch idiom, not growth from zero.
func nilDeclaredVars(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		decl, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) > 0 {
				continue
			}
			for _, id := range vs.Names {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !out[obj] {
				continue
			}
			if i < len(as.Rhs) && isAppendOf(pass, as.Rhs[i], obj) {
				continue
			}
			delete(out, obj)
		}
		return true
	})
	return out
}

// isAppendOf reports whether expr is append(x, ...) for the variable x.
func isAppendOf(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[arg] == obj
}

// captures reports whether lit references variables declared in the
// enclosing function (outside the literal itself).
func captures(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.Pos() == token.NoPos {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// this literal.
		if obj.Pos() >= fd.Pos() && obj.Pos() <= fd.End() && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
			found = true
		}
		return !found
	})
	return found
}
