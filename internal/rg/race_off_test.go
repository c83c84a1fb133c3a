//go:build !race

package rg

// raceEnabled reports whether the race detector is active — same split
// as the root package's race_off_test.go/race_on_test.go pair: the plain
// run executes the AllocsPerRun guards, the -race run skips them (the
// race runtime adds bookkeeping allocations, making alloc counts
// nondeterministic).
const raceEnabled = false
