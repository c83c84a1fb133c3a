//go:build !race

package graphio

// raceEnabled reports whether the race detector is active — same split
// as the root package's race_off_test.go/race_on_test.go pair: the plain
// run executes the timing comparison, the -race run skips it (the race
// runtime slows the two loaders by different factors).
const raceEnabled = false
