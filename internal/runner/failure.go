package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// FailureSchema versions the failure-report JSON layout.
const FailureSchema = "cameo-failures-v1"

// CellFailure records one failed cell. Error holds only the first line of
// its error (no stack traces, no addresses), so a report is byte-identical
// across runs and worker counts for a deterministic fault schedule.
// Attempts is 1 for a runner's cell (each is attempted once); a fleet
// coordinator counts its dispatches of the cell there.
type CellFailure struct {
	Key      string `json:"key"`
	Name     string `json:"name"`
	Hash     string `json:"hash"`
	Attempts int    `json:"attempts"`
	Kind     string `json:"kind"` // panic | timeout | invalid-config | error
	Error    string `json:"error"`
}

// FailureReport is the structured summary of every failed cell in a run,
// cells sorted by canonical key.
type FailureReport struct {
	Schema string        `json:"schema"`
	Failed int           `json:"failed"`
	Cells  []CellFailure `json:"cells"`
}

// WriteJSON serializes the report deterministically (indented, cells
// key-sorted by construction).
func (rep *FailureReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Summary is the one-line human rendering for stderr.
func (rep *FailureReport) Summary() string {
	names := make([]string, 0, len(rep.Cells))
	for _, c := range rep.Cells {
		names = append(names, c.Name)
	}
	const keep = 5
	if len(names) > keep {
		names = append(names[:keep], fmt.Sprintf("… %d more", len(rep.Cells)-keep))
	}
	return fmt.Sprintf("%d cells failed: %s", rep.Failed, strings.Join(names, ", "))
}

// FailedCellsError is returned by RunAll when one or more of its cells
// failed: the sweep completed every other cell, and the report says
// exactly what is missing.
type FailedCellsError struct {
	Report *FailureReport
}

func (e *FailedCellsError) Error() string {
	return "runner: " + e.Report.Summary()
}

// PanicError wraps a panic (the job's own or an injected one) recovered
// during a cell attempt. Error() keeps the historical single-string format
// so existing log scraping still works; the report uses only the first line.
type PanicError struct {
	Name  string // job name
	Value string // the panic value, stringified
	Stack string // debug.Stack() at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %s panicked: %s\n%s", e.Name, e.Value, e.Stack)
}

// TimeoutError reports a cell that outlived the per-job watchdog.
// The watchdog cancels the attempt's context; the simulation engine's
// preemption points unwind the goroutine within a few thousand events and
// the worker is reclaimed. Abandoned marks the rare attempt that ignored
// cancellation past the reclaim grace (non-cooperative code) and was left
// behind — the pre-cancellation failure mode, now an explicit anomaly
// instead of the rule.
type TimeoutError struct {
	Name      string
	Timeout   time.Duration
	Abandoned bool
}

func (e *TimeoutError) Error() string {
	if e.Abandoned {
		return fmt.Sprintf("runner: job %s exceeded the %s watchdog and ignored cancellation (goroutine abandoned)", e.Name, e.Timeout)
	}
	return fmt.Sprintf("runner: job %s exceeded the %s watchdog", e.Name, e.Timeout)
}

// CancelledError reports a cell stopped by cooperative cancellation of the
// sweep itself (Ctrl-C, request deadline, drain) rather than the per-cell
// watchdog. It unwraps to the context error, so
// errors.Is(err, context.Canceled) works on it; the runner never counts a
// cancelled cell as a failure and does not memoize it.
type CancelledError struct {
	Name  string
	Cause error // context.Canceled or context.DeadlineExceeded
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("runner: job %s cancelled: %v", e.Name, e.Cause)
}

func (e *CancelledError) Unwrap() error { return e.Cause }

// permanentError marks an error in the cell's own configuration (invalid
// configuration, geometry that cannot be built); the failure report
// classifies it as invalid-config.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as a configuration error. Permanent(nil) is nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// classifyFailure maps a final cell error onto the report's kind taxonomy.
func classifyFailure(err error) string {
	var pe *PanicError
	var te *TimeoutError
	var ce *CancelledError
	switch {
	case errors.As(err, &pe):
		return "panic"
	case errors.As(err, &te):
		return "timeout"
	case errors.As(err, &ce):
		return "cancelled"
	case IsPermanent(err):
		return "invalid-config"
	default:
		return "error"
	}
}

// firstLine trims an error message to its first line (stack traces and
// multi-line wrapping are non-deterministic across runs).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
