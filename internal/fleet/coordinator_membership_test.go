package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// partitionable is a real cameod worker behind a switch that, while on,
// resets every connection (the shape a network partition gives the
// coordinator). served counts the cell dispatches that reached the worker.
type partitionable struct {
	*httptest.Server
	partitioned atomic.Bool
	served      atomic.Int64
}

func newPartitionable(t *testing.T, opts server.Options) *partitionable {
	t.Helper()
	if opts.Execute == nil {
		opts.Execute = coordFakeExecute
	}
	if opts.Jobs == 0 {
		opts.Jobs = 2
	}
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := &partitionable{}
	inner := srv.Handler()
	p.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.partitioned.Load() {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		if r.URL.Path == "/sweep" {
			p.served.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(p.Close)
	t.Cleanup(func() { _ = srv.Drain() })
	t.Cleanup(func() { p.partitioned.Store(false) })
	return p
}

// slowFakeExecute is coordFakeExecute after d, or at once when the cell's
// context ends first.
func slowFakeExecute(d time.Duration) func(context.Context, runner.Job) system.Result {
	return func(ctx context.Context, j runner.Job) system.Result {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
}

// TestFleetPartitionShorterThanSuspicionWindow is the in-process
// partition drill: a chaos plan isolates one worker's heartbeat channel
// for two probes, which turns it suspect. The first probe after that finds
// it ready and makes it alive again, with one suspicion counted and no
// cell failed, and a sweep afterwards is byte-identical.
func TestFleetPartitionShorterThanSuspicionWindow(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	_, w1 := newFleetWorker(t, server.Options{})
	_, w2 := newFleetWorker(t, server.Options{})
	w2host := strings.TrimPrefix(w2.URL, "http://")

	plan := faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteFleetHeartbeat, Kind: faultinject.Partition,
		Prob: 1, Match: w2host, MaxAttempt: 2,
	})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectMisses:     2,
		Chaos:             plan,
	})

	waitFor(t, 5*time.Second, "w2 suspected", func() bool {
		return counterOrZero(co.Metrics(), "fleet/suspects") >= 1
	})
	waitFor(t, 5*time.Second, "w2 back alive", func() bool {
		return co.mem.state(w2.URL) == StateAlive
	})

	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-drill sweep: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
	snap := co.Metrics()
	if got := counterOrZero(snap, "fleet/suspects"); got != 1 {
		t.Errorf("suspects = %d, want 1", got)
	}
	if got := counterOrZero(snap, "fleet/cells_failed"); got != 0 {
		t.Errorf("cells_failed = %d, want 0", got)
	}
}

// TestFleetFalseDeathRevival: a worker unreachable for many heartbeats
// stays suspect all along — there is no death to be wrong about — and the
// first probe after the partition heals makes it alive again. It then
// serves the next sweep, whose bytes match single-node.
func TestFleetFalseDeathRevival(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	_, w1 := newFleetWorker(t, server.Options{})
	w2 := newPartitionable(t, server.Options{})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectMisses:     1,
	})

	w2.partitioned.Store(true)
	waitFor(t, 5*time.Second, "w2 suspect", func() bool {
		return co.mem.state(w2.URL) == StateSuspect
	})
	time.Sleep(400 * time.Millisecond) // some 20 missed probes
	if st := co.mem.state(w2.URL); st != StateSuspect {
		t.Fatalf("w2 after 20 missed probes is %v, want still suspect", st)
	}

	w2.partitioned.Store(false)
	waitFor(t, 5*time.Second, "w2 alive again", func() bool {
		return co.mem.state(w2.URL) == StateAlive
	})
	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-partition sweep: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
	if w2.served.Load() == 0 {
		t.Error("the recovered worker served no cell of the next sweep")
	}
	if got := counterOrZero(co.Metrics(), "fleet/suspects"); got != 1 {
		t.Errorf("suspects = %d, want 1", got)
	}
}

// TestFleetDeadWorkerRejoinDedupe: a sweep survives its worker being
// partitioned mid-sweep (it turns suspect and the survivor steals its
// queue) and the probe making it alive again mid-sweep. The canonical-
// cell-key dedupe means no stale in-flight answer from the recovered
// worker can double-resolve a cell, and the merged bytes still match
// single-node.
func TestFleetDeadWorkerRejoinDedupe(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	slow := slowFakeExecute(40 * time.Millisecond)
	_, w1 := newFleetWorker(t, server.Options{Execute: slow, MaxInflight: 1, Jobs: 1})
	w2 := newPartitionable(t, server.Options{Execute: slow, MaxInflight: 1, Jobs: 1})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectMisses:     1,
	})

	done := postAsync(cts.URL, fleetSweepBody)
	time.Sleep(100 * time.Millisecond) // sweep underway on both workers

	w2.partitioned.Store(true)
	waitFor(t, 5*time.Second, "w2 suspect mid-sweep", func() bool {
		return co.mem.state(w2.URL) == StateSuspect
	})
	w2.partitioned.Store(false)
	waitFor(t, 5*time.Second, "w2 alive again", func() bool {
		return co.mem.state(w2.URL) == StateAlive
	})

	got := <-done
	if got.status != http.StatusOK {
		t.Fatalf("sweep status %d: %s", got.status, got.body)
	}
	if !bytes.Equal(got.body, want) {
		t.Errorf("suspect+recovery sweep differs from single-node:\nfleet:  %s\nsingle: %s", got.body, want)
	}
}

// TestDrainingWorkerStaysSuspect: a worker that starts draining mid-sweep
// answers its next dispatch 503 and turns suspect. Its /readyz answers 503
// for as long as it drains, so no probe makes it alive again, and the
// coordinator's /readyz lists it under suspect. The survivor steals its
// cells, and the sweep answers with single-node bytes.
func TestDrainingWorkerStaysSuspect(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	// w2 holds its first cell until its drain has begun, and w1 holds its
	// cells until w2 has turned suspect, so w2's next dispatch finds it
	// draining while cells are still queued.
	entered, drainBegun, suspected := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var enterOnce, suspectOnce sync.Once
	release := func() { suspectOnce.Do(func() { close(suspected) }) }
	w1Exec := func(ctx context.Context, j runner.Job) system.Result {
		select {
		case <-suspected:
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	w2Exec := func(ctx context.Context, j runner.Job) system.Result {
		enterOnce.Do(func() { close(entered) })
		select {
		case <-drainBegun:
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	_, w1 := newFleetWorker(t, server.Options{Execute: w1Exec})
	drainer, w2 := newFleetWorker(t, server.Options{Execute: w2Exec, MaxInflight: 1, Jobs: 1})
	t.Cleanup(release)
	// SuspectMisses is out of reach within the test, so only the 503
	// answer can turn w2 suspect.
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectMisses:     1000,
	})

	done := postAsync(cts.URL, fleetSweepBody)
	<-entered
	go drainer.Drain() //nolint:errcheck // the cleanup's Drain reports nothing new either
	waitFor(t, 5*time.Second, "w2 to begin draining", func() bool { return drainer.ReadyState().Draining })
	close(drainBegun)
	waitFor(t, 5*time.Second, "w2 to leave the alive state", func() bool {
		return co.mem.state(w2.URL) != StateAlive
	})
	release()

	got := <-done
	if got.status != http.StatusOK || !bytes.Equal(got.body, want) {
		t.Fatalf("sweep across a drain: status %d, identical=%v: %s", got.status, bytes.Equal(got.body, want), got.body)
	}
	time.Sleep(200 * time.Millisecond) // some 10 heartbeats answered 503
	resp, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready coordReady
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || len(ready.Workers) != 1 || ready.Workers[0] != w1.URL || len(ready.Suspect) != 1 || ready.Suspect[0] != w2.URL {
		t.Fatalf("coordinator readyz = %+v, want ready with %s alive and the draining %s suspect", ready, w1.URL, w2.URL)
	}
}

// TestFleetSweepOutlastsWholeFleetPartition: every worker of a sweep is
// partitioned mid-sweep. The sweep waits with every worker suspect, here
// for 700 ms, then completes with single-node bytes once one worker
// answers again; meanwhile the
// coordinator's /readyz answers 503 and a newly posted sweep fails at once.
// A second sweep, whose one alive worker is partitioned mid-sweep, waits
// until its deadline and ends with 504.
func TestFleetSweepOutlastsWholeFleetPartition(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	slow := slowFakeExecute(40 * time.Millisecond)
	w1 := newPartitionable(t, server.Options{Execute: slow, MaxInflight: 1, Jobs: 1})
	w2 := newPartitionable(t, server.Options{Execute: slow, MaxInflight: 1, Jobs: 1})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectMisses:     1,
	})
	allSuspect := func() bool {
		return co.mem.state(w1.URL) == StateSuspect && co.mem.state(w2.URL) == StateSuspect
	}

	done := postAsync(cts.URL, fleetSweepBody)
	waitFor(t, 5*time.Second, "the sweep underway", func() bool { return w1.served.Load()+w2.served.Load() >= 2 })
	w1.partitioned.Store(true)
	w2.partitioned.Store(true)
	waitFor(t, 5*time.Second, "every worker suspect", allSuspect)
	// Meanwhile the coordinator is not ready, and a new sweep fails at once.
	ready, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("coordinator readyz with every worker suspect = %d, want 503", ready.StatusCode)
	}
	if resp, body := postJSON(t, cts.URL, fleetSweepBody); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "no live workers") {
		t.Fatalf("sweep posted with every worker suspect: status %d: %s, want 500 no live workers", resp.StatusCode, body)
	}
	select {
	case got := <-done:
		t.Fatalf("sweep ended while every worker was suspect: status %d: %s", got.status, got.body)
	case <-time.After(700 * time.Millisecond):
	}
	w1.partitioned.Store(false)
	got := <-done
	if got.status != http.StatusOK || !bytes.Equal(got.body, want) {
		t.Fatalf("sweep across a whole-fleet partition: status %d, identical=%v: %s", got.status, bytes.Equal(got.body, want), got.body)
	}

	// w2 is still partitioned, so it joins the next sweep paused.
	served := w1.served.Load()
	deadlined := strings.TrimSuffix(fleetSweepBody, "}") + `,"timeout_ms":1500}`
	done = postAsync(cts.URL, deadlined)
	waitFor(t, 5*time.Second, "the second sweep underway", func() bool { return w1.served.Load() > served })
	w1.partitioned.Store(true)
	got = <-done
	if got.status != http.StatusGatewayTimeout || !strings.Contains(string(got.body), "deadline exceeded") {
		t.Fatalf("sweep whose deadline came first: status %d: %s, want 504 deadline exceeded", got.status, got.body)
	}
	if !allSuspect() {
		t.Error("a worker turned alive while every worker was partitioned")
	}
	if got := counterOrZero(co.Metrics(), "fleet/cells_failed"); got != 0 {
		t.Errorf("cells_failed = %d, want 0", got)
	}
}

// TestSuspectAtStartJoinsPausedThenSpawns: a worker that is suspect when a
// sweep starts joins it paused. The cells the ring gives it wait in its
// queue, where the active worker steals them; once a heartbeat finds the
// suspect ready, it spawns its dispatch slots and takes cells too. The
// merged bytes match single-node.
func TestSuspectAtStartJoinsPausedThenSpawns(t *testing.T) {
	const body = `{"org":"cameo","benchmarks":["milc","gcc","lbm"],"sweep":"seed","values":[1,2,3,4,5,6,7,8]}`
	want := singleNodeReference(t, body)

	_, w1 := newFleetWorker(t, server.Options{Execute: slowFakeExecute(30 * time.Millisecond), MaxInflight: 1, Jobs: 1})
	w2 := newPartitionable(t, server.Options{})
	w2.partitioned.Store(true)
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{w1.URL, w2.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectMisses:     1,
	})
	waitFor(t, 5*time.Second, "w2 suspect before the sweep", func() bool {
		return co.mem.state(w2.URL) == StateSuspect
	})

	done := postAsync(cts.URL, body)
	waitFor(t, 5*time.Second, "w1 to steal from the paused w2", func() bool {
		return counterOrZero(co.Metrics(), "fleet/cells_stolen") >= 1
	})
	w2.partitioned.Store(false)
	got := <-done
	if got.status != http.StatusOK || !bytes.Equal(got.body, want) {
		t.Fatalf("sweep: status %d, identical=%v: %s", got.status, bytes.Equal(got.body, want), got.body)
	}
	if w2.served.Load() == 0 {
		t.Error("w2 served no cell after a probe found it ready: its slots never spawned")
	}
}
