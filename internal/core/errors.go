package core

import (
	"errors"
	"fmt"
)

// Sentinel errors of the verifier API. They are wrapped with %w into the
// descriptive errors Verify returns, so callers dispatch with errors.Is
// instead of string matching:
//
//	if errors.Is(err, core.ErrUnknownTask) { ... }
//
// The spin-like baseline wraps the same sentinels (spinlike.Verify), so
// one errors.Is check covers both engines.
var (
	// ErrUnknownTask: the property names a task the system does not have.
	ErrUnknownTask = errors.New("unknown task")
	// ErrInvalidProperty: the property failed validation against the
	// system (clashing globals, undefined atoms, ill-typed conditions).
	ErrInvalidProperty = errors.New("invalid property")
	// ErrUnknownVariant: an engine name is not a built-in engine.
	ErrUnknownVariant = errors.New("unknown verifier variant")
)

// invalidPropf wraps ErrInvalidProperty with a formatted description.
func invalidPropf(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", ErrInvalidProperty, fmt.Sprintf(format, args...))
}
