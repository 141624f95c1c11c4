// Package precisionboundary keeps the scheduler precision-blind: the
// f32 (and soon int8) serving tiers live entirely behind the float64
// ExecStageBatch boundary, so float32 values and the inference
// engine's generic types instantiated at float32 (tensor.Mat[float32],
// nn.Program[float32], staged.Frozen[float32], under any alias) must
// not leak into exported signatures outside the packages that own them
// (internal/tensor, internal/nn, internal/staged, internal/snapshot).
// Everything else — sched, core, service, cache, cmd — exchanges
// float64 only, which is what lets a new precision tier land without
// touching the scheduler or its arenas.
//
// A precision type is recognised by structure, not by name: aliases
// are resolved, and a generic type is as precise as its type
// arguments — float32 among them, or a type parameter whose constraint
// admits float32, makes it a tier type. The float64 instantiation is
// ordinary API.
package precisionboundary

import (
	"go/ast"
	"go/types"
	"strings"

	"eugene/internal/analysis"
)

// Analyzer flags float32-typed exported API outside the precision
// packages.
var Analyzer = &analysis.Analyzer{
	Name: "precisionboundary",
	Doc: `forbid float32 and float32-instantiated types in exported API outside the precision packages

Exported functions, methods, struct fields, variables, and type
definitions outside internal/tensor, internal/nn, internal/staged, and
internal/snapshot must not mention float32, complex64, or a generic
type instantiated at them (tensor.Mat[float32], staged.Frozen[float32],
their aliases Matrix32 and Frozen32, or an open type parameter that
admits float32). The scheduler and service layers stay precision-blind
behind the float64 ExecStageBatch contract.`,
	Run: run,
}

// allowed are the package-path suffixes where f32 types are at home.
var allowed = []string{
	"internal/tensor",
	"internal/nn",
	"internal/staged",
	"internal/snapshot",
	"internal/analysis", // the analyzers talk about these types by name
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	for _, a := range allowed {
		if path == a || strings.HasSuffix(path, a) || strings.Contains(path, a+"/") {
			return nil, nil
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFunc(pass, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						checkType(pass, s)
					case *ast.ValueSpec:
						checkValue(pass, s)
					}
				}
			}
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	obj, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Signature()
	// Methods on unexported types are not public API.
	if recv := sig.Recv(); recv != nil && !exportedReceiver(recv.Type()) {
		return
	}
	if bad := findF32(sig); bad != "" {
		pass.Reportf(d.Name.Pos(), "exported %s has %s in its signature: float32 types must stay behind the float64 ExecStageBatch boundary (allowed only in %s)",
			d.Name.Name, bad, strings.Join(allowed[:4], ", "))
	}
}

func checkType(pass *analysis.Pass, s *ast.TypeSpec) {
	if !s.Name.IsExported() {
		return
	}
	obj := pass.TypesInfo.Defs[s.Name]
	if obj == nil {
		return
	}
	// An alias is API for everything it names; for a struct definition
	// only exported fields are; for other types the whole definition is.
	if s.Assign.IsValid() {
		if bad := findF32(obj.Type()); bad != "" {
			pass.Reportf(s.Name.Pos(), "exported type %s is an alias of %s: float32 types must stay behind the float64 ExecStageBatch boundary", s.Name.Name, bad)
		}
		return
	}
	if st, ok := obj.Type().Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			if bad := findF32(f.Type()); bad != "" {
				pass.Reportf(f.Pos(), "exported field %s.%s has type containing %s: float32 types must stay behind the float64 ExecStageBatch boundary",
					s.Name.Name, f.Name(), bad)
			}
		}
		return
	}
	if bad := findF32(obj.Type().Underlying()); bad != "" {
		pass.Reportf(s.Name.Pos(), "exported type %s is defined in terms of %s: float32 types must stay behind the float64 ExecStageBatch boundary", s.Name.Name, bad)
	}
}

func checkValue(pass *analysis.Pass, s *ast.ValueSpec) {
	for _, name := range s.Names {
		if !name.IsExported() {
			continue
		}
		obj := pass.TypesInfo.Defs[name]
		if obj == nil {
			continue
		}
		if bad := findF32(obj.Type()); bad != "" {
			pass.Reportf(name.Pos(), "exported %s has type containing %s: float32 types must stay behind the float64 ExecStageBatch boundary", name.Name, bad)
		}
	}
}

// exportedReceiver reports whether the receiver's named type is
// exported.
func exportedReceiver(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Exported()
	}
	return true
}

// findF32 walks a type and returns a description of the first
// precision-tier component found, or "".
func findF32(t types.Type) string {
	return find(t, map[types.Type]bool{})
}

func find(t types.Type, seen map[types.Type]bool) string {
	t = types.Unalias(t)
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Basic:
		switch t.Kind() {
		case types.Float32:
			return "float32"
		case types.Complex64:
			return "complex64"
		}
	case *types.Named:
		// A generic type is as precise as what it is instantiated at.
		// Named types are not expanded otherwise (time.Time etc.).
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if find(t.TypeArgs().At(i), seen) != "" {
				return types.TypeString(t, (*types.Package).Name)
			}
		}
	case *types.TypeParam:
		return find(t.Constraint().Underlying(), seen)
	case *types.Union:
		for i := 0; i < t.Len(); i++ {
			if s := find(t.Term(i).Type(), seen); s != "" {
				return s
			}
		}
	case *types.Pointer:
		return find(t.Elem(), seen)
	case *types.Slice:
		return find(t.Elem(), seen)
	case *types.Array:
		return find(t.Elem(), seen)
	case *types.Map:
		if s := find(t.Key(), seen); s != "" {
			return s
		}
		return find(t.Elem(), seen)
	case *types.Chan:
		return find(t.Elem(), seen)
	case *types.Signature:
		if s := find(t.Params(), seen); s != "" {
			return s
		}
		return find(t.Results(), seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if s := find(t.At(i).Type(), seen); s != "" {
				return s
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if s := find(t.Field(i).Type(), seen); s != "" {
				return s
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if s := find(t.Method(i).Type(), seen); s != "" {
				return s
			}
		}
		for i := 0; i < t.NumEmbeddeds(); i++ {
			if s := find(t.EmbeddedType(i), seen); s != "" {
				return s
			}
		}
	}
	return ""
}
