package store

import (
	"errors"
	"fmt"
)

// ErrInjected is the sentinel wrapped by every fault the faultstore
// injects, so tests can tell injected failures from real ones.
var ErrInjected = errors.New("store: injected fault")

// A Fault is a classified I/O failure: it names the operation and path
// it struck and says whether retrying can help. The retry layer treats
// any error that does not carry a Fault as permanent — real filesystem
// errors fail fast, and only explicitly classified failures burn
// backoff budget.
type Fault struct {
	Op        string // "read", "write", "open", ...
	Path      string
	Transient bool
	Err       error
}

func (f *Fault) Error() string {
	kind := "permanent"
	if f.Transient {
		kind = "transient"
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

// IsTransient reports whether err carries a Fault marked transient.
func IsTransient(err error) bool {
	var f *Fault
	return errors.As(err, &f) && f.Transient
}
