package store

import (
	"errors"
	"fmt"
)

// ErrInjected is the sentinel wrapped by every fault the faultstore
// injects, so tests can tell injected failures from real ones.
var ErrInjected = errors.New("store: injected fault")

// FaultKind refines a Fault beyond transient/permanent: what class of
// failure struck, so a deadline that ran out reads apart from a device
// that failed (in store.retry events and in the error text).
type FaultKind int

const (
	// KindIO is an ordinary I/O failure (the zero value).
	KindIO FaultKind = iota
	// KindTimeout marks an attempt abandoned at its deadline
	// (RetryPolicy.AttemptTimeout). Transient by construction: the next
	// attempt may not hang.
	KindTimeout
)

func (k FaultKind) String() string {
	switch k {
	case KindIO:
		return "io"
	case KindTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// A Fault is a classified I/O failure: it names the operation and path
// it struck, says whether retrying can help, and carries the failure
// class (Kind). The retry layer treats any error that does not carry a
// Fault (or another Transient() bool implementation) as permanent —
// real filesystem errors fail fast, and only explicitly classified
// failures burn backoff budget.
type Fault struct {
	Op        string // "read", "write", "open", ...
	Path      string
	Kind      FaultKind
	Transient bool
	Err       error
}

func (f *Fault) Error() string {
	kind := "permanent"
	if f.Transient {
		kind = "transient"
	}
	if f.Kind != KindIO {
		kind += " " + f.Kind.String()
	}
	return fmt.Sprintf("store: %s %s %s: %v", kind, f.Op, f.Path, f.Err)
}

func (f *Fault) Unwrap() error { return f.Err }

// NewTransient wraps err as a retryable fault.
func NewTransient(op, path string, err error) *Fault {
	return &Fault{Op: op, Path: path, Transient: true, Err: err}
}

// NewPermanent wraps err as a non-retryable fault.
func NewPermanent(op, path string, err error) *Fault {
	return &Fault{Op: op, Path: path, Transient: false, Err: err}
}

// NewTimeout wraps err as a deadline fault: transient (the retry layer
// may re-issue the attempt) and classified KindTimeout, so slowness
// reads apart from flakiness.
func NewTimeout(op, path string, err error) *Fault {
	return &Fault{Op: op, Path: path, Kind: KindTimeout, Transient: true, Err: err}
}

// transienter is the interface any error can implement to opt into
// retries.
type transienter interface{ IsTransient() bool }

// IsTransient reports whether err is worth retrying: a *Fault marked
// transient, or any error implementing IsTransient() bool.
func IsTransient(err error) bool {
	var f *Fault
	if errors.As(err, &f) {
		return f.Transient
	}
	var t transienter
	if errors.As(err, &t) {
		return t.IsTransient()
	}
	return false
}

// IsKind reports whether err carries a Fault of the given kind.
func IsKind(err error, kind FaultKind) bool {
	var f *Fault
	return errors.As(err, &f) && f.Kind == kind
}
