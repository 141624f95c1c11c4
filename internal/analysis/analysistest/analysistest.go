// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against `// want`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library alone.
//
// A want comment annotates the line it trails with one or more quoted
// regular expressions, each of which must be matched by exactly one
// diagnostic reported on that line:
//
//	pool.Get() // want `result of .*Get is discarded`
//
// Unmatched want patterns and unexpected diagnostics both fail the
// test, so a fixture with seeded violations fails if its analyzer is
// disabled or regresses.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"eugene/internal/analysis"
	"eugene/internal/analysis/load"
)

// Run analyzes each fixture package (a directory under
// testdata/src/<pkg>) and reports mismatches against its want
// comments on t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runOne(t, testdata, a, pkg)
	}
}

func runOne(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: reading fixture dir: %v", a.Name, err)
	}
	var selected []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			selected = append(selected, filepath.Join(dir, e.Name()))
		}
	}
	if len(selected) == 0 {
		t.Fatalf("%s: fixture %s has no Go files", a.Name, pkg)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, path := range selected {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			importSet[p] = true
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	imp, err := load.StdImporter(fset, dir, imports)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	info := load.NewInfo()
	conf := &types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg, fset, files, info)
	if err != nil {
		t.Fatalf("%s: type-checking fixture %s: %v", a.Name, pkg, err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       tpkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	// Apply //lint:ignore suppression exactly as the driver does, so
	// fixtures can assert that annotated drops stay silent.
	sup := analysis.NewSuppressor(fset, files)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.Suppressed(fset, a.Name, d.Pos) {
			kept = append(kept, d)
		}
	}
	diags = kept

	wants := collectWants(t, a.Name, fset, files)
	checkDiags(t, a.Name, fset, diags, wants)
}

// want is one expected-diagnostic pattern.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants parses `// want` comments from the fixture files.
func collectWants(t *testing.T, name string, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				spec, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				pats, err := parsePatterns(spec)
				if err != nil {
					t.Fatalf("%s: %s: bad want comment: %v", name, pos, err)
				}
				for _, p := range pats {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s: %s: bad want pattern %q: %v", name, pos, p, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: p})
				}
			}
		}
	}
	return wants
}

// parsePatterns lexes the sequence of Go-quoted or backquoted strings
// in a want comment.
func parsePatterns(spec string) ([]string, error) {
	var pats []string
	rest := strings.TrimSpace(spec)
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("expected quoted pattern at %q", rest)
		}
		p, err := strconv.Unquote(q)
		if err != nil {
			return nil, err
		}
		pats = append(pats, p)
		rest = strings.TrimSpace(rest[len(q):])
	}
	if len(pats) == 0 {
		return nil, fmt.Errorf("want comment with no patterns")
	}
	return pats, nil
}

// checkDiags matches diagnostics against wants one-to-one.
func checkDiags(t *testing.T, name string, fset *token.FileSet, diags []analysis.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: %s: unexpected diagnostic: %s", name, pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: no diagnostic matched pattern %q", name, w.file, w.line, w.raw)
		}
	}
}
