// Package lockorder_test holds the lock-order cases of the locks
// analyzer, which was the lockorder analyzer before it merged with
// blockinlock into one lock walk.
package lockorder_test

import (
	"testing"

	"eugene/internal/analysis/analysistest"
	"eugene/internal/analysis/locks"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", locks.Analyzer, "a")
}
