package shard

import (
	"errors"
	"fmt"
	"strings"
)

// ErrManifest marks a manifest that could not be read or validated
// (unparsable JSON, wrong version or code, code parameters the code
// rejects, checksum count mismatch, a stripe count that does not fit
// the file size, strip sums that disagree with the shape or the
// checksums) — distinct from shard-content failures, which recovery can
// work around.
var ErrManifest = errors.New("shard: bad manifest")

// ShardState classifies one shard's health as recovery saw it.
type ShardState int

const (
	// StateOK: present and right-sized, and every strip of it read so
	// far matched its strip sum. A probe that reads nothing (a version 5
	// decode or repair) leaves every strip to the stream.
	StateOK ShardState = iota
	// StateMissing: the shard file does not exist.
	StateMissing
	// StateTruncated: present but the wrong size.
	StateTruncated
	// StateCorrupt: present and readable, but a strip of it failed its
	// strip sum; each failing strip is erased for its own stripe, and the
	// shard's other strips are used as read. On a version 1–4 set a
	// shard whose whole-shard checksum fails is StateCorrupt and erased
	// whole, as nothing says which of its strips are bad.
	StateCorrupt
	// StateIOError: the shard could not be read (open/read failure that
	// survived the retry budget).
	StateIOError
	// StateQuarantined: a read of the shard failed mid-stream, and it was
	// excluded on a later attempt.
	StateQuarantined
)

func (s ShardState) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateMissing:
		return "missing"
	case StateTruncated:
		return "truncated"
	case StateCorrupt:
		return "corrupt"
	case StateIOError:
		return "io-error"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ShardStatus describes one shard's health during recovery.
type ShardStatus struct {
	Index   int
	Name    string
	Present bool
	Valid   bool // every strip matched its strip sum
	// State refines Present/Valid into the full fault taxonomy.
	State ShardState
	// Err is the underlying cause for io-error and quarantined states.
	Err error
}

// unusable reports whether the shard cannot contribute clean data.
func (s ShardStatus) unusable() bool { return s.State != StateOK }

// problems renders the unhealthy entries of a status slice.
func problems(status []ShardStatus) string {
	var parts []string
	for _, st := range status {
		if st.unusable() {
			parts = append(parts, fmt.Sprintf("%s(%s)", st.Name, st.State))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

// countUnusable returns the number of shards that cannot contribute
// clean data.
func countUnusable(status []ShardStatus) int {
	n := 0
	for _, st := range status {
		if st.unusable() {
			n++
		}
	}
	return n
}

// DegradedError reports that a shard set has lost redundancy but remains
// recoverable (no stripe has more than m strips unusable). Verify
// returns it so callers can distinguish "clean", "recoverable but
// degraded", and "lost"; it carries the per-shard status so tests and
// operators can see exactly which shards failed and why.
type DegradedError struct {
	Status []ShardStatus
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("shard: degraded (%d of %d shards unusable): %s",
		countUnusable(e.Status), len(e.Status), problems(e.Status))
}

// Unusable returns the indices of the shards that failed.
func (e *DegradedError) Unusable() []int {
	var out []int
	for _, st := range e.Status {
		if st.unusable() {
			out = append(out, st.Index)
		}
	}
	return out
}

// UnrecoverableError reports that recovery is impossible: a stripe has
// more strips unusable than the code tolerates, or a reconstructed strip
// fails its sum. It replaces the old untyped "N shards unusable" error
// and carries the full per-shard report.
type UnrecoverableError struct {
	Status []ShardStatus
	Reason string
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("shard: unrecoverable: %s (shards: %s)", e.Reason, problems(e.Status))
}

// Failed returns the indices of the shards that failed.
func (e *UnrecoverableError) Failed() []int {
	var out []int
	for _, st := range e.Status {
		if st.unusable() {
			out = append(out, st.Index)
		}
	}
	return out
}

// quarantineError is the internal restart signal: a read of column col
// failed mid-stream and the attempt must be retried with it erased.
type quarantineError struct {
	col   int
	cause error
}

func (e *quarantineError) Error() string {
	return fmt.Sprintf("shard: shard %d quarantined mid-stream: %v", e.col, e.cause)
}

func (e *quarantineError) Unwrap() error { return e.cause }
