//go:build race

package graphio

// raceEnabled reports whether the race detector is active; see
// race_off_test.go for the intended split.
const raceEnabled = true
