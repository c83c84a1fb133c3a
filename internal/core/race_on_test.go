//go:build race

package core

// raceEnabled reports whether the race detector is active; see
// race_off_test.go for the intended split.
const raceEnabled = true
