//go:build race

package service

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates on paths that are allocation-free in normal
// builds, so AllocsPerRun gates skip under -race (CI runs them in a
// dedicated non-race step).
const raceEnabled = true
