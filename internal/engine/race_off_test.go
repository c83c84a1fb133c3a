//go:build !race

package engine

// raceEnabled reports whether the race detector is active — same split
// as the root package's race_off_test.go/race_on_test.go pair: the plain
// run executes the AllocsPerRun guards, the -race run skips them
// (sync.Pool drops items under -race, making alloc counts
// nondeterministic).
const raceEnabled = false
