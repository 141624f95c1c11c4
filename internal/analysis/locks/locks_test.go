package locks_test

import (
	"testing"

	"eugene/internal/analysis/analysistest"
	"eugene/internal/analysis/locks"
)

func TestLocks(t *testing.T) {
	analysistest.Run(t, "testdata", locks.Analyzer, "a")
}
