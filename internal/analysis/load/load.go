// Package load resolves imports for the analysistest fixtures using
// only the standard library and the go command: `go list -export`
// compiles the imported packages into the build cache and reports
// their export data files, which go/importer's gc importer reads back.
// (Under `go vet -vettool`, cmd/go hands eugenevet the export data
// itself.)
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// listedPackage mirrors the `go list -json` fields the loader uses.
type listedPackage struct {
	ImportPath string
	Export     string
}

// goList runs `go list -e -export -deps -json` in dir for the given
// patterns and returns the decoded package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Export",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer that resolves imports from
// the export-data files go list reported. Import paths are used as
// written in source: the module has no vendored imports, so no
// ImportMap indirection is needed.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// StdImporter type-checks stand-alone fixture files (analysistest): it
// resolves the given stdlib import paths (and their dependencies) via
// `go list -export` once and returns the export-data importer.
func StdImporter(fset *token.FileSet, dir string, paths []string) (types.Importer, error) {
	if len(paths) == 0 {
		return exportImporter(fset, nil), nil
	}
	listed, err := goList(dir, paths)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exportImporter(fset, exports), nil
}
