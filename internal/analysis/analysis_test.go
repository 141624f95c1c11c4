package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"eugene/internal/analysis"
)

func TestValidate(t *testing.T) {
	run := func(*analysis.Pass) (any, error) { return nil, nil }
	ok := []*analysis.Analyzer{{Name: "a", Run: run}, {Name: "b", Run: run}}
	if err := analysis.Validate(ok); err != nil {
		t.Fatalf("Validate(ok) = %v", err)
	}
	for i, bad := range [][]*analysis.Analyzer{
		{{Name: "", Run: run}},
		{{Name: "a", Run: nil}},
		{{Name: "a", Run: run}, {Name: "a", Run: run}},
	} {
		if err := analysis.Validate(bad); err == nil {
			t.Errorf("Validate case %d: expected error", i)
		}
	}
}

func TestSuppressor(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore alpha,beta best-effort cleanup
	g()
	h()
	g() //lint:ignore alpha trailing placement
}

func g() {}
func h() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := analysis.NewSuppressor(fset, []*ast.File{f})

	// Collect the three call positions in source order.
	var calls []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c.Pos())
		}
		return true
	})
	if len(calls) != 3 {
		t.Fatalf("found %d calls, want 3", len(calls))
	}
	cases := []struct {
		name string
		pos  token.Pos
		want bool
	}{
		{"alpha", calls[0], true},  // standalone directive, line above
		{"beta", calls[0], true},   // multi-analyzer directive
		{"gamma", calls[0], false}, // not named by the directive
		{"alpha", calls[1], false}, // two lines below the directive
		{"alpha", calls[2], true},  // trailing-comment placement
	}
	for _, c := range cases {
		if got := sup.Suppressed(fset, c.name, c.pos); got != c.want {
			p := fset.Position(c.pos)
			t.Errorf("Suppressed(%s, %s) = %v, want %v", c.name, p, got, c.want)
		}
	}
}

func TestSuppressorAudit(t *testing.T) {
	src := `package p

func used() {
	//lint:ignore alpha justified: alpha reports on the next line
	g()
}

func stale() {
	//lint:ignore alpha nothing reports here anymore
	g()
}

func typo() {
	//lint:ignore alhpa misspelled analyzer name
	g()
}

func wild() {
	//lint:ignore * suppress everything
	g()
}

func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	run := func(*analysis.Pass) (any, error) { return nil, nil }
	suite := []*analysis.Analyzer{{Name: "alpha", Run: run}}

	sup := analysis.NewSuppressor(fset, []*ast.File{f})
	// Simulate alpha reporting inside used(): its directive is on the
	// line above the g() call, i.e. line 4, so the diagnostic is line 5.
	var gInUsed token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && gInUsed == token.NoPos {
			gInUsed = c.Pos()
		}
		return true
	})
	if !sup.Suppressed(fset, "alpha", gInUsed) {
		t.Fatal("directive in used() did not suppress")
	}

	var got []string
	sup.Audit(suite, func(d analysis.Diagnostic) {
		got = append(got, d.Message)
	})
	want := []string{
		"stale lint:ignore: alpha no longer report anything here; delete the directive",
		"lint:ignore names unknown analyzer(s) alhpa; it suppresses nothing",
		"lint:ignore * suppresses every analyzer and cannot be audited; name the analyzers being suppressed",
	}
	if len(got) != len(want) {
		t.Fatalf("Audit reported %d findings %q, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Audit[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
