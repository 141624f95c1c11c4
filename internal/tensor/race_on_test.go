//go:build race

package tensor

// raceEnabled reports whether the race detector is active; the kernel
// sweeps' Go references run several times slower under it, so the
// largest of their layers are left to the non-race runs.
const raceEnabled = true
