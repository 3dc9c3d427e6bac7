package soc

import "errors"

// ErrInvalidConfig is the sentinel every configuration-validation
// failure wraps: a Config rejected by Validate (and therefore by Run,
// RunContext and the engine batch paths) satisfies
// errors.Is(err, ErrInvalidConfig). Runtime failures — a cancelled
// context, a mid-run model error — do not wrap it, so callers can
// separate "this job could never run" from "this job was interrupted".
var ErrInvalidConfig = errors.New("soc: invalid config")

// PolicyValidator is an optional interface a Policy implements to have
// its own configuration checked by Config.Validate before a run.
// Returned errors are wrapped in ErrInvalidConfig.
type PolicyValidator interface {
	// Validate reports whether the policy's configuration is usable.
	Validate() error
}
