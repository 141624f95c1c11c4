// Package blockinlock_test holds the blocking-under-lock cases of the
// locks analyzer, which was the blockinlock analyzer before it merged
// with lockorder into one lock walk.
package blockinlock_test

import (
	"testing"

	"eugene/internal/analysis/analysistest"
	"eugene/internal/analysis/locks"
)

func TestBlockInLock(t *testing.T) {
	analysistest.Run(t, "testdata", locks.Analyzer, "a")
}
