package locks_test

import (
	"testing"

	"eugene/internal/analysis/analysistest"
	"eugene/internal/analysis/locks"
)

// TestLocks runs the analyzer over its three fixtures, one subtest
// each: the lock-order rule (order), the blocking-under-lock rule
// (blocking), and the cases that need both at once (a).
func TestLocks(t *testing.T) {
	for _, pkg := range []string{"order", "blocking", "a"} {
		t.Run(pkg, func(t *testing.T) {
			analysistest.Run(t, "testdata", locks.Analyzer, pkg)
		})
	}
}
