package repro

import (
	"fmt"
	"strings"
)

// OptionError reports an invalid value passed to one of the functional
// options of New. It is returned (wrapped-compatible via errors.As) instead
// of a silent fall-through to a default.
type OptionError struct {
	// Option is the option name, e.g. "WithScale".
	Option string
	// Value is the rejected value, rendered as a string.
	Value string
	// Allowed lists the accepted values, when the option has a closed
	// domain.
	Allowed []string
}

func (e *OptionError) Error() string {
	msg := fmt.Sprintf("repro: %s: invalid value %q", e.Option, e.Value)
	if len(e.Allowed) > 0 {
		msg += " (allowed: " + strings.Join(e.Allowed, ", ") + ")"
	}
	return msg
}

// SnapshotMismatchError reports a conflict between an explicitly configured
// option of New and the manifest of the snapshot WithSnapshot points at. New
// refuses to boot rather than silently serving results the flags did not ask
// for; drop the conflicting option (the service then inherits the manifest's
// value) or rebuild the snapshot.
type SnapshotMismatchError struct {
	// Option is the conflicting option, e.g. "WithSeed".
	Option string
	// Want is the explicitly configured value, Have the manifest's.
	Want, Have string
}

func (e *SnapshotMismatchError) Error() string {
	return fmt.Sprintf("repro: snapshot manifest conflicts with %s: configured %s, bundle built with %s", e.Option, e.Want, e.Have)
}

// RequestError reports an invalid AnnotateRequest. The serving layer maps it
// to an HTTP 400 with a typed JSON error body.
type RequestError struct {
	// Field is the request field at fault ("table", "types", "k").
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("repro: invalid request: %s: %s", e.Field, e.Reason)
}
