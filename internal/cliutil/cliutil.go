// Package cliutil carries the small pieces shared by this module's
// command-line binaries: interrupt-driven context wiring, the
// conventional exit status for it, and the table of policy names the
// binaries accept.
package cliutil

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sysscale"
)

// ExitInterrupt is the conventional exit status (128+SIGINT) a binary
// reports when an interrupt cancelled its work.
const ExitInterrupt = 130

// InterruptContext derives a context from parent that is cancelled on
// SIGINT or SIGTERM. The first signal cancels the context — in-flight
// engine work unwinds within one policy epoch — and immediately
// unregisters the handler, so a second signal kills the process the
// usual way even if the run fails to unwind. The returned stop releases
// the signal registration; call it when the context is no longer
// needed.
func InterruptContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// PolicyNames lists the names Policy accepts, for flag usage text.
const PolicyNames = "baseline | sysscale | memscale | memscale-redist | coscale | coscale-redist | static-low"

// Policy returns a new governor for a command-line policy name, matched
// in any letter case. static-low pins the low point of the two-point
// ladder and resizes the compute budget to match.
func Policy(name string) (sysscale.Policy, error) {
	switch strings.ToLower(name) {
	case "baseline":
		return sysscale.NewBaseline(), nil
	case "sysscale":
		return sysscale.NewSysScale(), nil
	case "memscale":
		return sysscale.NewMemScale(false), nil
	case "memscale-redist":
		return sysscale.NewMemScale(true), nil
	case "coscale":
		return sysscale.NewCoScale(false), nil
	case "coscale-redist":
		return sysscale.NewCoScale(true), nil
	case "static-low":
		return sysscale.NewStaticPoint(1, true), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
