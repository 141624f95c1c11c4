// Package analysis is Eugene's in-tree counterpart of
// golang.org/x/tools/go/analysis: the minimal Analyzer/Pass/Diagnostic
// surface the repo's custom vet checks build on, implemented entirely
// on the standard library so the module keeps zero dependencies.
//
// The analyzers in the subpackages machine-enforce invariants that
// previously lived only in comments and reviewer memory — typed
// atomics only, the sync.Pool arena pairing in the scheduler, the lock
// order and no blocking under a lock. See cmd/eugenevet for
// the driver (`go vet -vettool`) and CONTRIBUTING.md for the table of
// invariants and what enforces each.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer is one static check. Name is the key in //lint:ignore
// directives; Doc's first line is the one-line summary printed by
// `eugenevet -list`.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
}

// String returns the analyzer's name.
func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with one type-checked package and a
// sink for diagnostics, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned in the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Validate rejects duplicate or unnamed analyzers before a driver runs
// them (ignore directives key on Name).
func Validate(analyzers []*Analyzer) error {
	seen := map[string]bool{}
	for _, a := range analyzers {
		switch {
		case a.Name == "":
			return fmt.Errorf("analysis: analyzer with empty name (doc %.40q)", a.Doc)
		case a.Run == nil:
			return fmt.Errorf("analysis: analyzer %s has no Run", a.Name)
		case seen[a.Name]:
			return fmt.Errorf("analysis: duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// ignoreRe matches staticcheck-style suppression directives:
//
//	//lint:ignore analyzer1,analyzer2 reason the check does not apply
//
// The directive must carry a non-empty justification. It suppresses
// matching diagnostics on its own line (trailing-comment placement)
// and on the line below (standalone placement above the statement).
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+(.+)$`)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int // line the comment is on
	analyzers []string
	pos       token.Pos
	used      bool // a diagnostic matched since parsing
}

func (d *ignoreDirective) matches(name string, file string, line int) bool {
	if d.file != file || (line != d.line && line != d.line+1) {
		return false
	}
	for _, a := range d.analyzers {
		if a == name || a == "*" {
			return true
		}
	}
	return false
}

// Suppressor filters diagnostics through the //lint:ignore directives
// of a package's files. The driver and analysistest build one per
// package and apply it to every analyzer's output, so fixtures see the
// suppression `go vet -vettool` runs apply.
type Suppressor struct {
	directives []ignoreDirective
}

// NewSuppressor collects the ignore directives from files.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				s.directives = append(s.directives, ignoreDirective{
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: strings.Split(m[1], ","),
					pos:       c.Pos(),
				})
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic from the named analyzer at
// pos is covered by an ignore directive, marking every covering
// directive as used for Audit.
func (s *Suppressor) Suppressed(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	hit := false
	for i := range s.directives {
		if s.directives[i].matches(name, p.Filename, p.Line) {
			s.directives[i].used = true
			hit = true
		}
	}
	return hit
}

// Audit reports the directives that cannot be justified after every
// analyzer in suite has been applied through this Suppressor:
// directives naming an analyzer outside the suite (a typo silently
// suppresses nothing, or worse, a future analyzer), and stale
// directives none of whose named analyzers produced a diagnostic to
// suppress — the code they excused has been fixed or rewritten, and
// keeping them would blind the next genuine finding on that line.
// Wildcard ("*") directives are exempt from staleness but still
// reported here as unauditable: they must name their analyzers.
func (s *Suppressor) Audit(suite []*Analyzer, report func(Diagnostic)) {
	known := map[string]bool{}
	for _, a := range suite {
		known[a.Name] = true
	}
	for i := range s.directives {
		d := &s.directives[i]
		var unknown []string
		wildcard := false
		for _, name := range d.analyzers {
			switch {
			case name == "*":
				wildcard = true
			case !known[name]:
				unknown = append(unknown, name)
			}
		}
		switch {
		case wildcard:
			report(Diagnostic{Pos: d.pos, Message: "lint:ignore * suppresses every analyzer and cannot be audited; name the analyzers being suppressed"})
		case len(unknown) > 0:
			report(Diagnostic{Pos: d.pos, Message: fmt.Sprintf("lint:ignore names unknown analyzer(s) %s; it suppresses nothing", strings.Join(unknown, ", "))})
		case !d.used:
			report(Diagnostic{Pos: d.pos, Message: fmt.Sprintf("stale lint:ignore: %s no longer report anything here; delete the directive", strings.Join(d.analyzers, ", "))})
		}
	}
}
