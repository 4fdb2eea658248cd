//go:build race

package raidsim

// raceEnabled reports whether the race detector is instrumenting this
// build. AllocsPerRun is not meaningful under -race: the instrumentation
// itself allocates.
const raceEnabled = true
