package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/sweepapi"
)

// Client talks to cameod workers: cell dispatch, readiness probes, and
// liveness checks. One Client serves a whole coordinator; it is stateless
// and safe for concurrent use.
type Client struct {
	http *http.Client
	// probe bounds healthz/readyz probes separately from dispatches —
	// a probe against an unreachable worker must fail fast.
	probe *http.Client
}

// NewClient builds a worker client. A cell dispatch has no client-side
// bound (the sweep context bounds it); probes are bounded at 2s. chaos,
// when non-nil, wires the deterministic transport fault plan under every
// request (sites fleet/dispatch and fleet/heartbeat) — the fault-free path
// is untouched.
func NewClient(chaos *faultinject.Plan) *Client {
	rt := newChaosTransport(nil, chaos)
	return &Client{
		http:  &http.Client{Transport: rt},
		probe: &http.Client{Timeout: 2 * time.Second, Transport: rt},
	}
}

// errShed marks a 429 from a worker's admission control: the cell was not
// run, and the caller should back off and retry rather than fail over.
type errShed struct{ retryAfter time.Duration }

func (e errShed) Error() string {
	return fmt.Sprintf("fleet: worker saturated, retry after %s", e.retryAfter)
}

// errDraining marks a 503: the worker is draining and takes no new cells
// — suspect it, and its queued cells open to stealing.
var errDraining = fmt.Errorf("fleet: worker draining")

// RunCell dispatches one single-cell request to a worker and returns the
// worker's response. Error classes the caller dispatches on: errShed
// (back off, same worker), errDraining (suspect the worker),
// *permanentCellError (the worker rejected the cell as invalid — retrying
// elsewhere cannot help), and transport errors (retry, then probe the
// worker and maybe suspect it).
func (c *Client) RunCell(ctx context.Context, worker string, req sweepapi.Request) (*sweepapi.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: marshalling cell request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var sr sweepapi.Response
		if err := json.Unmarshal(data, &sr); err != nil {
			return nil, fmt.Errorf("fleet: worker %s answered unparseable response: %w", worker, err)
		}
		return &sr, nil
	case http.StatusTooManyRequests:
		return nil, errShed{retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	case http.StatusServiceUnavailable:
		return nil, errDraining
	case http.StatusBadRequest:
		return nil, &permanentCellError{worker: worker, body: errorBody(data)}
	default:
		return nil, fmt.Errorf("fleet: worker %s answered %d: %s", worker, resp.StatusCode, errorBody(data))
	}
}

// maxShedBackoff caps the honoured Retry-After: a worker (or intermediary)
// quoting minutes or hours must not stall dispatch, so absurd values clamp
// here and failover proceeds on the coordinator's schedule.
const maxShedBackoff = 30 * time.Second

// parseRetryAfter reads a Retry-After header in either RFC 9110 form —
// delta-seconds or an HTTP-date — defaulting to one second when the header
// is absent, malformed, or already in the past, and clamping the result to
// maxShedBackoff.
func parseRetryAfter(h string) time.Duration {
	wait := time.Second
	if ra, err := strconv.Atoi(h); err == nil && ra > 0 {
		// Clamp before multiplying: delta-seconds above ~9.2e9 would
		// overflow the Duration and wrap negative.
		wait = time.Duration(min(ra, int(maxShedBackoff/time.Second))) * time.Second
	} else if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > wait {
			wait = d
		}
	}
	if wait > maxShedBackoff {
		wait = maxShedBackoff
	}
	return wait
}

// errBackoffDeadline tags a retry or shed backoff abandoned because the
// request's remaining context budget could not cover the wait: sleeping
// would only have converted a prompt, attributable deadline error into a
// silent stall that dies at the deadline anyway. Unwraps to
// context.DeadlineExceeded so callers' deadline handling applies unchanged.
type errBackoffDeadline struct {
	wait, remain time.Duration
}

func (e *errBackoffDeadline) Error() string {
	return fmt.Sprintf("fleet: %s backoff exceeds the request's remaining %s budget: %v",
		e.wait, e.remain, context.DeadlineExceeded)
}

func (e *errBackoffDeadline) Unwrap() error { return context.DeadlineExceeded }

// waitBackoff sleeps d, but never past the context's deadline: when the
// remaining budget cannot cover the wait it fails fast with a
// deadline-tagged error instead of sleeping, and a cancellation mid-sleep
// returns the context's error. A nil return means the full wait elapsed
// and the caller may retry.
func waitBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if dl, ok := ctx.Deadline(); ok {
		remain := time.Until(dl)
		if remain <= d {
			return &errBackoffDeadline{wait: d, remain: remain}
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// permanentCellError is a worker's 400: the cell itself is invalid, so no
// retry or failover can succeed.
type permanentCellError struct {
	worker string
	body   string
}

func (e *permanentCellError) Error() string {
	return fmt.Sprintf("fleet: worker %s rejected cell: %s", e.worker, e.body)
}

// errorBody extracts the "error" field of a JSON error answer, falling
// back to the raw (first-line, bounded) body.
func errorBody(data []byte) string {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err == nil && m["error"] != "" {
		return m["error"]
	}
	s := string(data)
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// Ready probes a worker's /readyz and returns its admission state. This is
// also the heartbeat probe — it rides the fleet/heartbeat fault site, so
// partition drills can starve the failure detector without touching
// dispatches.
func (c *Client) Ready(ctx context.Context, worker string) (sweepapi.ReadyState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/readyz", nil)
	if err != nil {
		return sweepapi.ReadyState{}, err
	}
	resp, err := c.probe.Do(req)
	if err != nil {
		return sweepapi.ReadyState{}, err
	}
	defer resp.Body.Close()
	var st sweepapi.ReadyState
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&st); err != nil {
		return sweepapi.ReadyState{}, fmt.Errorf("fleet: worker %s readyz: %w", worker, err)
	}
	return st, nil
}

// Healthy probes a worker's /healthz once a dispatch to it has exhausted
// its retries: true means the process is alive (possibly draining), so the
// cell itself failed; false means the worker is unreachable.
func (c *Client) Healthy(ctx context.Context, worker string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.probe.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
