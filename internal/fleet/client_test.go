package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/server"
	"cameo/internal/sweepapi"
)

// TestParseRetryAfter covers both RFC 9110 forms of the header —
// delta-seconds and HTTP-date — plus the malformed and absurd cases the
// shed-backoff path must stay sane under.
func TestParseRetryAfter(t *testing.T) {
	httpDate := func(d time.Duration) string {
		return time.Now().Add(d).UTC().Format(http.TimeFormat)
	}
	cases := []struct {
		name   string
		header string
		lo, hi time.Duration
	}{
		{"delta-seconds", "3", 3 * time.Second, 3 * time.Second},
		{"absent", "", time.Second, time.Second},
		{"malformed", "soon", time.Second, time.Second},
		{"negative", "-5", time.Second, time.Second},
		{"delta-clamped", "86400", maxShedBackoff, maxShedBackoff},
		{"delta-overflow", "10000000000", maxShedBackoff, maxShedBackoff},
		{"delta-overflow-uint64-ns", "18446744073", maxShedBackoff, maxShedBackoff},
		// HTTP-date resolves against the wall clock; allow slack below and
		// require it lands in the intended neighbourhood.
		{"http-date", httpDate(5 * time.Second), 3 * time.Second, 5 * time.Second},
		{"http-date-past", httpDate(-time.Minute), time.Second, time.Second},
		{"http-date-clamped", httpDate(2 * time.Hour), maxShedBackoff, maxShedBackoff},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := parseRetryAfter(tc.header)
			if got < tc.lo || got > tc.hi {
				t.Fatalf("parseRetryAfter(%q) = %v, want in [%v, %v]", tc.header, got, tc.lo, tc.hi)
			}
		})
	}
}

// stubWorker answers every /sweep with a fixed status, headers, and body.
func stubWorker(t *testing.T, status int, headers map[string]string, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, v := range headers {
			w.Header().Set(k, v)
		}
		w.WriteHeader(status)
		w.Write([]byte(body)) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

var clientCellReq = sweepapi.Request{Org: "cameo", Benchmarks: []string{"milc"}, Seed: 7}

// TestRunCellStatusClassification pins the error taxonomy dispatch branches
// on: each worker status maps to exactly one error class, because the
// coordinator's failover logic switches on these types.
func TestRunCellStatusClassification(t *testing.T) {
	c := NewClient(nil)
	ctx := context.Background()

	t.Run("shed-429", func(t *testing.T) {
		srv := stubWorker(t, http.StatusTooManyRequests, map[string]string{"Retry-After": "7"}, "")
		_, err := c.RunCell(ctx, srv.URL, clientCellReq)
		var shed errShed
		if !errors.As(err, &shed) {
			t.Fatalf("429 error = %v (%T), want errShed", err, err)
		}
		if shed.retryAfter != 7*time.Second {
			t.Errorf("retryAfter = %v, want 7s from the header", shed.retryAfter)
		}
	})
	t.Run("draining-503", func(t *testing.T) {
		srv := stubWorker(t, http.StatusServiceUnavailable, nil, `{"error":"draining"}`)
		if _, err := c.RunCell(ctx, srv.URL, clientCellReq); !errors.Is(err, errDraining) {
			t.Fatalf("503 error = %v, want errDraining", err)
		}
	})
	t.Run("permanent-400", func(t *testing.T) {
		srv := stubWorker(t, http.StatusBadRequest, nil, `{"error":"unknown organization \"nope\""}`)
		_, err := c.RunCell(ctx, srv.URL, clientCellReq)
		var perm *permanentCellError
		if !errors.As(err, &perm) {
			t.Fatalf("400 error = %v (%T), want permanentCellError", err, err)
		}
		if !strings.Contains(perm.body, "unknown organization") {
			t.Errorf("permanent error lost the worker's message: %q", perm.body)
		}
	})
	t.Run("generic-500", func(t *testing.T) {
		srv := stubWorker(t, http.StatusInternalServerError, nil, "boom")
		_, err := c.RunCell(ctx, srv.URL, clientCellReq)
		if err == nil || !strings.Contains(err.Error(), "500") {
			t.Fatalf("500 error = %v, want generic error naming the status", err)
		}
		var shed errShed
		var perm *permanentCellError
		if errors.As(err, &shed) || errors.As(err, &perm) || errors.Is(err, errDraining) {
			t.Fatalf("500 landed in a specific class: %v", err)
		}
	})
}

// TestRunCellMalformedBodies: a 200 whose body is not a valid response must
// surface as an error, never as a zero-value result.
func TestRunCellMalformedBodies(t *testing.T) {
	c := NewClient(nil)
	ctx := context.Background()

	t.Run("invalid-json", func(t *testing.T) {
		srv := stubWorker(t, http.StatusOK, nil, `{"cells": [{"benchmark": `)
		if _, err := c.RunCell(ctx, srv.URL, clientCellReq); err == nil || !strings.Contains(err.Error(), "unparseable") {
			t.Fatalf("malformed 200 body error = %v, want unparseable-response error", err)
		}
	})
	t.Run("truncated-body", func(t *testing.T) {
		// Content-Length promises more than arrives: the read, not the
		// decode, must report the truncation.
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", "4096")
			w.Write([]byte(`{"org":"cameo","cells":[`)) //nolint:errcheck
		}))
		t.Cleanup(srv.Close)
		if _, err := c.RunCell(ctx, srv.URL, clientCellReq); err == nil {
			t.Fatal("truncated body accepted")
		}
	})
}

// TestRunCellConnectionRefused: a dead endpoint falls through to the
// transport-error class — the one that makes the coordinator probe health
// and consider failover, rather than retry or quarantine.
func TestRunCellConnectionRefused(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()

	c := NewClient(nil)
	_, err := c.RunCell(context.Background(), url, clientCellReq)
	if err == nil {
		t.Fatal("dispatch to a closed endpoint succeeded")
	}
	var shed errShed
	var perm *permanentCellError
	if errors.As(err, &shed) || errors.As(err, &perm) || errors.Is(err, errDraining) {
		t.Fatalf("connection refused landed in a worker-status class: %v", err)
	}
}

// TestWaitBackoff pins the context-budget clamp: a wait the deadline cannot
// cover fails immediately with a deadline-tagged error instead of sleeping.
func TestWaitBackoff(t *testing.T) {
	t.Run("deadline-clamp", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := waitBackoff(ctx, time.Minute)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("clamped wait error = %v, want deadline exceeded", err)
		}
		var bd *errBackoffDeadline
		if !errors.As(err, &bd) {
			t.Fatalf("clamped wait error = %T, want *errBackoffDeadline", err)
		}
		if e := time.Since(start); e > 40*time.Millisecond {
			t.Fatalf("fail-fast took %v — it slept instead", e)
		}
	})
	t.Run("cancel-mid-sleep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		if err := waitBackoff(ctx, time.Minute); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait error = %v, want canceled", err)
		}
	})
	t.Run("full-wait", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := waitBackoff(ctx, 10*time.Millisecond); err != nil {
			t.Fatalf("affordable wait error = %v, want nil", err)
		}
	})
	t.Run("zero-wait", func(t *testing.T) {
		if err := waitBackoff(context.Background(), 0); err != nil {
			t.Fatalf("zero wait error = %v, want nil", err)
		}
	})
}

// TestDispatchRetryExhaustion: a healthy worker whose dispatches keep
// failing burns through its dispatch retries and the cell lands in the
// failure report (kind "error") — no endless retry loop, and the worker
// is not suspected.
func TestDispatchRetryExhaustion(t *testing.T) {
	ready, _ := json.Marshal(sweepapi.ReadyState{Ready: true, MaxInflight: 2})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		case "/readyz":
			w.Header().Set("Content-Type", "application/json")
			w.Write(ready) //nolint:errcheck
		default:
			http.Error(w, "flaky", http.StatusInternalServerError)
		}
	}))
	t.Cleanup(srv.Close)

	co, cts := newTestCoordinator(t, CoordinatorOptions{Workers: []string{srv.URL}})
	resp, body := postJSON(t, cts.URL, `{"org":"cameo","benchmarks":["milc"],"sweep":"seed","values":[7]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr server.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Failures) != 1 || sr.Failures[0].Kind != "error" {
		t.Fatalf("failures = %+v, want one kind=error record", sr.Failures)
	}
	if got := counterValue(t, co.Metrics(), "fleet/dispatch_retries"); got == 0 {
		t.Error("dispatch_retries = 0 — retries never engaged before exhaustion")
	}
	if got := counterOrZero(co.Metrics(), "fleet/suspects"); got != 0 {
		t.Errorf("suspects = %d, want 0: the worker answered its health probe", got)
	}
}

// TestDispatchDropRetried: one dispatch lost in transit to a healthy worker
// costs a retry, not the cell — the sweep answers the single-node bytes
// with no failure record.
func TestDispatchDropRetried(t *testing.T) {
	const body = `{"org":"cameo","benchmarks":["milc"],"sweep":"seed","values":[7]}`
	want := singleNodeReference(t, body)
	_, w := newFleetWorker(t, server.Options{})
	plan := faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteFleetDispatch, Kind: faultinject.Drop,
		Prob: 1, Match: strings.TrimPrefix(w.URL, "http://"), MaxAttempt: 1,
	})
	co, cts := newTestCoordinator(t, CoordinatorOptions{Workers: []string{w.URL}, Chaos: plan})
	resp, got := postJSON(t, cts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sweep after one dropped dispatch differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}
	if got := counterValue(t, co.Metrics(), "fleet/dispatch_retries"); got != 1 {
		t.Errorf("dispatch_retries = %d, want 1", got)
	}
}
