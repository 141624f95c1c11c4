//go:build race

package experiments

// raceEnabled reports whether the race detector is active; the
// paper-scale lab takes minutes to train under it, so the paper gates
// skip there (CI runs them in a dedicated non-race step).
const raceEnabled = true
