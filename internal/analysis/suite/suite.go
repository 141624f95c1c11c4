// Package suite registers the repo's analyzers in the order they are
// run by cmd/eugenevet.
package suite

import (
	"eugene/internal/analysis"
	"eugene/internal/analysis/atomicfield"
	"eugene/internal/analysis/hotpathalloc"
	"eugene/internal/analysis/locks"
	"eugene/internal/analysis/poolput"
	"eugene/internal/analysis/uncheckederr"
)

// All returns every analyzer in the suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfield.Analyzer,
		poolput.Analyzer,
		uncheckederr.Analyzer,
		locks.Analyzer,
		hotpathalloc.Analyzer,
	}
}
