package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/metrics"
	"cameo/internal/runner"
	"cameo/internal/server"
	"cameo/internal/system"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func counterOrZero(snap metrics.Snapshot, name string) uint64 {
	if s, ok := snap.Get(name); ok {
		return s.Value
	}
	return 0
}

// TestFleetPartitionShorterThanSuspicionWindow is the in-process
// partition drill: a chaos plan isolates one worker's heartbeat channel
// for a bounded window shorter than the suspicion window. The worker
// must pass through suspect and return to alive with zero deaths, zero
// false deaths, and zero re-shards — and a sweep afterwards is
// byte-identical.
func TestFleetPartitionShorterThanSuspicionWindow(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	_, w1 := newFleetWorker(t, server.Options{})
	_, w2 := newFleetWorker(t, server.Options{})
	w2host := strings.TrimPrefix(w2.URL, "http://")

	// The first 2 heartbeat probes against w2 fail; suspicion needs 2
	// misses, death needs 6 — the partition heals well inside the window.
	plan := faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteFleetHeartbeat, Kind: faultinject.Partition,
		Prob: 1, Match: w2host, MaxAttempt: 2,
	})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectMisses:     2,
		DeadMisses:        6,
		Chaos:             plan,
	})

	waitFor(t, 5*time.Second, "w2 suspected", func() bool {
		return counterOrZero(co.Metrics(), "fleet/suspects") >= 1
	})
	waitFor(t, 5*time.Second, "w2 back alive", func() bool {
		return co.mem.state(w2.URL) == StateAlive
	})
	snap := co.Metrics()
	if got := counterOrZero(snap, "fleet/worker_deaths"); got != 0 {
		t.Errorf("worker_deaths = %d, want 0 (partition was shorter than the window)", got)
	}
	if got := counterOrZero(snap, "fleet/false_deaths"); got != 0 {
		t.Errorf("false_deaths = %d, want 0", got)
	}
	if got := counterOrZero(snap, "fleet/cells_resharded"); got != 0 {
		t.Errorf("cells_resharded = %d, want 0 (suspicion must not move cells)", got)
	}

	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-drill sweep: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
}

// TestFleetFalseDeathRevival: a worker unreachable past the suspicion
// window is declared dead and re-sharded away; when it answers probes
// again the detector must count a false death, re-admit it as a fresh
// member, and use it for the next sweep — byte-identically.
func TestFleetFalseDeathRevival(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	_, w1 := newFleetWorker(t, server.Options{})
	w2srv, err := server.New(server.Options{Execute: coordFakeExecute, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var partitioned atomic.Bool
	inner := w2srv.Handler()
	w2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if partitioned.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("no hijack")
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // connection reset: the network-partition shape
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(w2.Close)
	t.Cleanup(func() { _ = w2srv.Drain() })

	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectMisses:     1,
		DeadMisses:        2,
	})

	partitioned.Store(true)
	waitFor(t, 5*time.Second, "w2 declared dead", func() bool {
		return co.mem.state(w2.URL) == StateDead
	})
	if got := counterOrZero(co.Metrics(), "fleet/worker_deaths"); got != 1 {
		t.Fatalf("worker_deaths = %d, want 1", got)
	}

	// The partition outlasted the window — a false death. Heal it: the
	// dead worker is still probed on its slow cadence and must revive.
	partitioned.Store(false)
	waitFor(t, 5*time.Second, "w2 revived", func() bool {
		return co.mem.state(w2.URL) == StateAlive
	})
	if got := counterOrZero(co.Metrics(), "fleet/false_deaths"); got != 1 {
		t.Errorf("false_deaths = %d, want 1", got)
	}

	// The revived member serves the next sweep, bytes unchanged.
	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-revival sweep: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
	// Two roster admissions and one revival.
	if got := counterOrZero(co.Metrics(), "fleet/joins"); got != 3 {
		t.Errorf("joins = %d, want 3", got)
	}
}

// TestFleetDeadWorkerRejoinDedupe: a sweep survives its worker dying
// (cells re-shard to the survivor) and the detector's probe re-admitting
// the dead worker mid-sweep — the canonical-cell-key dedupe means any
// stale in-flight answer from the re-admitted worker cannot double-resolve
// a cell, and the merged bytes still match single-node.
func TestFleetDeadWorkerRejoinDedupe(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	slowExec := func(ctx context.Context, j runner.Job) system.Result {
		select {
		case <-time.After(40 * time.Millisecond):
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	_, w1 := newFleetWorker(t, server.Options{Execute: slowExec, MaxInflight: 1, Jobs: 1})

	w2srv, err := server.New(server.Options{Execute: slowExec, MaxInflight: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var partitioned atomic.Bool
	inner := w2srv.Handler()
	w2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if partitioned.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("no hijack")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(w2.Close)
	t.Cleanup(func() { _ = w2srv.Drain() })

	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectMisses:     1,
		DeadMisses:        2,
	})

	done := make(chan []byte, 1)
	status := make(chan int, 1)
	go func() {
		resp, b := postJSON(t, cts.URL, fleetSweepBody)
		status <- resp.StatusCode
		done <- b
	}()
	time.Sleep(100 * time.Millisecond) // sweep underway on both workers

	partitioned.Store(true)
	waitFor(t, 5*time.Second, "w2 dead mid-sweep", func() bool {
		return co.mem.state(w2.URL) == StateDead
	})
	partitioned.Store(false)
	// The dead worker is still probed on its slow cadence; the first
	// answer re-admits it, typically while the sweep is still running.
	waitFor(t, 5*time.Second, "w2 re-admitted by the probe", func() bool {
		return co.mem.state(w2.URL) == StateAlive
	})

	if st := <-status; st != http.StatusOK {
		t.Fatalf("sweep status %d: %s", st, <-done)
	}
	if got := <-done; !bytes.Equal(got, want) {
		t.Errorf("death+rejoin sweep differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}
}
