// Package cli is the options surface shared by the cmd/ tools: the flag
// groups that map command-line flags onto library options (flags.go) and
// the error-path contract. Every tool routes failures through one of two
// helpers so the exit-code contract is uniform: 0 on success, 1 for
// runtime failures (plan or enumeration errors, cancelled sweeps,
// objective faults, unreadable files), 2 for usage errors (bad flags,
// unknown engines, strategies, kernels or devices, conflicting options).
// Both helpers flush stdout before exiting, so partial reports already
// printed are never lost to a buffered pipe.
package cli

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// Exit codes of the cmd/ tools.
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
)

// usageError marks an error as a usage mistake so Fail exits 2 even when
// the classification happened far from the call site (e.g. inside a flag
// loader shared by several code paths).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// Usagef builds a usage-classified error: Fail recognizes it and exits 2.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Fail reports an error on stderr, flushes stdout, and exits — 2 for
// usage-classified errors (see Usagef), 1 for everything else.
func Fail(tool string, err error) {
	code := ExitFailure
	if errors.As(err, new(usageError)) {
		code = ExitUsage
	}
	os.Stdout.Sync()
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	Exit(code)
}

// Exit runs the registered cleanups, flushes stdout, and exits with code.
// It is the silent variant of Fail for paths that have already printed
// their report — notably -lint, whose diagnostics go to stdout and whose
// exit code (2 on error-severity findings) is the contract.
func Exit(code int) {
	runAtExit()
	os.Stdout.Sync()
	os.Exit(code)
}

// atExit holds cleanups that must run on the error exit paths too —
// Fail and Exit call os.Exit, which skips defers, so Profiles.Start
// registers its flush here to keep profiles from dying with the process.
var (
	atExitMu sync.Mutex
	atExit   []func()
)

func runAtExit() {
	atExitMu.Lock()
	fns := atExit
	atExit = nil
	atExitMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}
