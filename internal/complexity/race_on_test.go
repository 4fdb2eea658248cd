//go:build race

package complexity

// raceEnabled reports whether the race detector is instrumenting this
// build. The XOR counts run on one goroutine, so it finds nothing there,
// and it slows the exhaustive decode sweeps about tenfold.
const raceEnabled = true
