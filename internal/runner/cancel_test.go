package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// waitGoroutines polls until the live goroutine count drops to at most
// base+slack or the deadline passes, returning the final count. Cancelled
// attempts unwind asynchronously (engine preemption plus scheduler), so an
// instantaneous read right after RunAll would race the cleanup.
func waitGoroutines(base, slack int, deadline time.Duration) int {
	var n int
	for end := time.Now().Add(deadline); ; {
		n = runtime.NumGoroutine()
		if n <= base+slack || time.Now().After(end) {
			return n
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosStallReclamation is the acceptance drill for cooperative
// cancellation: a sweep whose first cells stall (injected, deterministic)
// under a watchdog must (a) fail exactly the stalled cells, as timeouts,
// (b) complete every later cell on the reclaimed workers, (c) leak zero
// goroutines, and (d) recover by a rerun over the same cache, which
// simulates only the failed cells and converges to telemetry byte-identical
// to a fault-free run of the same plan.
func TestChaosStallReclamation(t *testing.T) {
	const n, stalled = 8, 4
	jobs := testJobs(n)

	sweep := func(cache Cache, plan *faultinject.Plan) (*Runner, error) {
		var executed atomic.Int64
		r := New(Options{
			Jobs:       2, // fewer workers than stalled cells: reclamation must free them
			Cache:      cache,
			Execute:    countingExecute(&executed, 0),
			JobTimeout: 50 * time.Millisecond,
			Faults:     plan,
		})
		return r, r.RunAll(context.Background(), jobs)
	}
	counter := func(r *Runner, name string) uint64 {
		s, _ := r.Metrics().Get(name)
		return uint64(s.Value)
	}

	base := runtime.NumGoroutine()
	// The first cells fed to the pool (seeds 1..4) stall "forever" (until
	// cancelled); the watchdog cancels each and reclaims its worker.
	var rules []faultinject.Rule
	for seed := 1; seed <= stalled; seed++ {
		rules = append(rules, faultinject.Rule{
			Site: faultinject.SiteJobRun, Kind: faultinject.Stall, Prob: 1,
			Match: fmt.Sprintf("|seed=%d|", seed),
		})
	}
	plan := faultinject.NewPlan(11, rules...)
	cache := openTestCache(t, t.TempDir())
	faulty, err := sweep(cache, plan)
	rep := failureReport(t, err, stalled, "timeout")
	for i, c := range rep.Cells {
		if c.Key != jobs[i].Key() {
			t.Fatalf("failed cell %d is %s, want seed %d", i, c.Name, i+1)
		}
	}
	if got := plan.Fires(); got != stalled {
		t.Fatalf("injected stalls = %d, want %d", got, stalled)
	}
	for name, want := range map[string]uint64{
		"runner/timeouts":             stalled,
		"runner/abandoned_goroutines": 0, // stalls honour cancellation
		"runner/cells_failed":         stalled,
		"runner/cells_executed":       n - stalled,
	} {
		if got := counter(faulty, name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}

	// Zero leaked goroutines (small slack for the test framework's own).
	if got := waitGoroutines(base, 2, 5*time.Second); got > base+2 {
		t.Fatalf("goroutines = %d after sweep, baseline %d: cancelled cells leaked", got, base)
	}

	// The rerun, with the fault cleared, simulates only the failed cells.
	rerun, err := sweep(cache, nil)
	if err != nil {
		t.Fatalf("rerun did not converge: %v", err)
	}
	if got := counter(rerun, "runner/cells_executed"); got != stalled {
		t.Fatalf("rerun executed %d cells, want the %d failed ones", got, stalled)
	}
	clean, err := sweep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rb, cb bytes.Buffer
	if err := rerun.Telemetry(false).WriteJSON(&rb); err != nil {
		t.Fatal(err)
	}
	if err := clean.Telemetry(false).WriteJSON(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb.Bytes(), cb.Bytes()) {
		t.Fatal("telemetry of the rerun differs from the fault-free run")
	}
	if rerun.Len() != n || clean.Len() != n {
		t.Fatalf("memoized cells = %d/%d, want %d", rerun.Len(), clean.Len(), n)
	}
}

// TestWatchdogCancelsRealSimulation drives the whole stack end to end: a
// genuinely long simulation cell (no Execute hook, no faults) under a tiny
// watchdog must fail with a non-abandoned TimeoutError — proof that the
// context reached the event loop's preemption points — and leave no
// goroutine behind.
func TestWatchdogCancelsRealSimulation(t *testing.T) {
	spec, ok := workload.SpecByName("milc")
	if !ok {
		t.Fatal("milc missing")
	}
	big := NewJob(spec, system.Config{
		ScaleDiv: 1024, Cores: 4, InstrPerCore: 50_000_000, Seed: 5,
	})
	base := runtime.NumGoroutine()
	r := New(Options{Jobs: 1, JobTimeout: 30 * time.Millisecond})
	_, err := r.Get(context.Background(), big)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Abandoned {
		t.Fatal("simulation goroutine was abandoned; engine preemption points did not fire")
	}
	if got := waitGoroutines(base, 2, 5*time.Second); got > base+2 {
		t.Fatalf("goroutines = %d after timeout, baseline %d", got, base)
	}
}

// TestRunAllCancellationPreemptsInFlight: cancelling the sweep context must
// preempt cells already executing (not just stop admission) and report the
// cancellation, with workers reclaimed.
func TestRunAllCancellationPreemptsInFlight(t *testing.T) {
	spec, ok := workload.SpecByName("milc")
	if !ok {
		t.Fatal("milc missing")
	}
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, NewJob(spec, system.Config{
			ScaleDiv: 1024, Cores: 4, InstrPerCore: 50_000_000, Seed: uint64(i + 1),
		}))
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	r := New(Options{Jobs: 2})
	done := make(chan error, 1)
	go func() { done <- r.RunAll(ctx, jobs) }()
	time.Sleep(30 * time.Millisecond) // let cells start simulating
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunAll did not return after cancellation: in-flight cells were not preempted")
	}
	if rep := r.FailureReport(); rep != nil {
		t.Fatalf("cancellation recorded cell failures: %+v", rep)
	}
	if got := waitGoroutines(base, 2, 5*time.Second); got > base+2 {
		t.Fatalf("goroutines = %d after cancelled sweep, baseline %d", got, base)
	}
}

// TestNonCooperativeExecuteIsAbandoned: an Execute hook that ignores ctx
// past the reclaim grace is abandoned (the pre-cancellation failure mode),
// flagged on the error and counted — the sweep itself keeps moving.
func TestNonCooperativeExecuteIsAbandoned(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	r := New(Options{
		Jobs:       1,
		JobTimeout: 20 * time.Millisecond,
		// Far below the stuck hook's park time: the watchdog must give up.
		ReclaimGrace: 30 * time.Millisecond,
		Execute: func(ctx context.Context, j Job) system.Result {
			<-release // ignores ctx entirely
			return system.Result{}
		},
	})
	_, err := r.Get(context.Background(), testJobs(1)[0])
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if !te.Abandoned {
		t.Fatal("TimeoutError.Abandoned = false for a hook that ignored cancellation")
	}
	if s, ok := r.Metrics().Get("runner/abandoned_goroutines"); !ok || s.Value == 0 {
		t.Fatalf("runner/abandoned_goroutines = %+v, want > 0", s)
	}
}

// TestCancelledCellsAreNotFailures: a cancelled cell must not enter the
// failure report or the memo, must be counted once as cancelled, and must
// surface as a *CancelledError that unwraps to context.Canceled; a later
// request runs it.
func TestCancelledCellsAreNotFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var calls atomic.Int64
	r := New(Options{
		Jobs: 1,
		Execute: func(c context.Context, j Job) system.Result {
			if calls.Add(1) == 1 {
				started <- struct{}{}
				<-c.Done()
			}
			return system.Result{Cycles: 1}
		},
	})
	job := testJobs(1)[0]
	done := make(chan error, 1)
	go func() {
		_, err := r.Get(ctx, job)
		done <- err
	}()
	<-started
	cancel()
	err := <-done
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("CancelledError does not unwrap to context.Canceled")
	}
	if rep := r.FailureReport(); rep != nil {
		t.Fatalf("cancelled cell entered the failure report: %+v", rep)
	}
	if s, ok := r.Metrics().Get("runner/cancelled"); !ok || s.Value != 1 {
		t.Fatalf("runner/cancelled = %+v, want 1", s)
	}
	if res, err := r.Get(context.Background(), job); err != nil || res.Cycles != 1 {
		t.Fatalf("later Get = %+v, %v: the cancelled cell was memoized", res, err)
	}
}
