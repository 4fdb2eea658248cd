//go:build race

package shard

// raceEnabled reports whether the race detector is instrumenting this
// build. Under it sync.Pool drops a random quarter of Puts, so pooled
// batches and probe buffers are sometimes allocated afresh.
const raceEnabled = true
