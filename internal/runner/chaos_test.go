package runner

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// Chaos tests drive the real failure machinery — watchdog, quarantine,
// failure report — with deterministic injected faults, so they assert
// exact counts, not "it probably recovered". The CI chaos job runs them
// under -race.

// failureReport returns the report a RunAll error carries, failing the
// test unless it is a *FailedCellsError listing want cells, each attempted
// once and of the given kind.
func failureReport(t *testing.T, err error, want int, kind string) *FailureReport {
	t.Helper()
	var fce *FailedCellsError
	if !errors.As(err, &fce) {
		t.Fatalf("err = %v, want a FailedCellsError", err)
	}
	if fce.Report.Failed != want || len(fce.Report.Cells) != want {
		t.Fatalf("report lists %d cells (%d rows), want %d", fce.Report.Failed, len(fce.Report.Cells), want)
	}
	for _, c := range fce.Report.Cells {
		if c.Kind != kind || c.Attempts != 1 {
			t.Fatalf("cell %s: kind=%s attempts=%d, want %s/1", c.Name, c.Kind, c.Attempts, kind)
		}
	}
	return fce.Report
}

// TestChaosPanicFailsCellOnce: every cell panics; each is attempted once,
// quarantined as a panic, and not run again by a second RunAll.
func TestChaosPanicFailsCellOnce(t *testing.T) {
	const n = 6
	var executed atomic.Int64
	plan := faultinject.NewPlan(7, faultinject.Rule{
		Site: faultinject.SiteJobRun, Kind: faultinject.Panic, Prob: 1,
	})
	r := New(Options{Jobs: 4, Execute: countingExecute(&executed, 0), Faults: plan})
	for round := 0; round < 2; round++ {
		failureReport(t, r.RunAll(context.Background(), testJobs(n)), n, "panic")
	}
	if got := plan.Fires(); got != n {
		t.Fatalf("injected panics = %d, want %d (one per cell)", got, n)
	}
	if got := executed.Load(); got != 0 {
		t.Fatalf("executions past the panic = %d, want 0", got)
	}
	snap := r.Metrics()
	for name, want := range map[string]uint64{
		"runner/panics":         n,
		"runner/cells_failed":   n,
		"runner/cells_executed": 0,
	} {
		s, ok := snap.Get(name)
		if !ok || uint64(s.Value) != want {
			t.Errorf("%s = %+v, want %d", name, s, want)
		}
	}
}

// TestChaosHangWatchdogTimesOut: every cell hangs far past the watchdog;
// the watchdog cancels each, reclaims its worker, and fails the cell with
// a TimeoutError after its one attempt.
func TestChaosHangWatchdogTimesOut(t *testing.T) {
	const n = 3
	var executed atomic.Int64
	plan := faultinject.NewPlan(7, faultinject.Rule{
		Site: faultinject.SiteJobRun, Kind: faultinject.Hang, Prob: 1,
		Delay: 10 * time.Second,
	})
	r := New(Options{
		Jobs:       n,
		Execute:    countingExecute(&executed, 0),
		JobTimeout: 30 * time.Millisecond,
		Faults:     plan,
	})
	start := time.Now()
	failureReport(t, r.RunAll(context.Background(), testJobs(n)), n, "timeout")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog did not cancel hung cells (took %s)", elapsed)
	}
	if executed.Load() != 0 {
		t.Fatalf("hung cells reported %d successful executions", executed.Load())
	}
	if s, ok := r.Metrics().Get("runner/timeouts"); !ok || uint64(s.Value) != n {
		t.Fatalf("runner/timeouts = %+v, want %d", s, n)
	}
}

// TestChaosTimeoutExhaustionFailsCell: a cell that hangs exhausts its one
// attempt and surfaces a TimeoutError; later requests, through RunAll or
// Get, return that memoized TimeoutError without running the cell again.
func TestChaosTimeoutExhaustionFailsCell(t *testing.T) {
	plan := faultinject.NewPlan(7, faultinject.Rule{
		Site: faultinject.SiteJobRun, Kind: faultinject.Hang, Prob: 1,
		Delay: 10 * time.Second,
	})
	var executed atomic.Int64
	r := New(Options{
		Jobs:       1,
		Execute:    countingExecute(&executed, 0),
		JobTimeout: 20 * time.Millisecond,
		Faults:     plan,
	})
	jobs := testJobs(1)
	for round := 0; round < 2; round++ {
		failureReport(t, r.RunAll(context.Background(), jobs), 1, "timeout")
	}
	_, err := r.Get(context.Background(), jobs[0])
	var te *TimeoutError
	if !errors.As(err, &te) || te.Abandoned {
		t.Fatalf("Get of a timed-out cell: err = %v, want its reclaimed TimeoutError", err)
	}
	if executed.Load() != 0 {
		t.Fatalf("hung cell reported %d successful executions", executed.Load())
	}
	if got := plan.Fires(); got != 1 {
		t.Fatalf("hangs = %d, want 1: a timed-out cell ran again", got)
	}
}

// TestChaosFailureReportDeterministic: with a fault plan that always
// fails the milc cells, sweeps at 1 and 8 workers quarantine the same
// cells and render byte-identical failure reports.
func TestChaosFailureReportDeterministic(t *testing.T) {
	specs := []string{"milc", "mcf", "sphinx3", "gcc"}
	var jobs []Job
	for _, name := range specs {
		sp, ok := workload.SpecByName(name)
		if !ok {
			t.Fatalf("spec %s missing", name)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			jobs = append(jobs, NewJob(sp, system.Config{
				ScaleDiv: 4096, Cores: 1, InstrPerCore: 1000, Seed: seed,
			}))
		}
	}

	reportJSON := func(workers int) []byte {
		t.Helper()
		var executed atomic.Int64
		plan := faultinject.NewPlan(7, faultinject.Rule{
			Site: faultinject.SiteJobRun, Kind: faultinject.Error, Prob: 1, Match: "milc",
		})
		r := New(Options{Jobs: workers, Execute: countingExecute(&executed, 0), Faults: plan})
		rep := failureReport(t, r.RunAll(context.Background(), jobs), 3, "error")
		// The 9 healthy cells all completed despite the failures.
		if got := executed.Load(); got != 9 {
			t.Fatalf("healthy executions = %d, want 9", got)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := reportJSON(1)
	parallel := reportJSON(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("failure reports differ across worker counts:\n--- jobs=1\n%s\n--- jobs=8\n%s", serial, parallel)
	}
}

// TestChaosPermanentErrorNotRetried: an invalid configuration fails
// through the real TryRun path as invalid-config after exactly one
// attempt, however often it is requested.
func TestChaosPermanentErrorNotRetried(t *testing.T) {
	sp, ok := workload.SpecByName("sphinx3")
	if !ok {
		t.Fatal("sphinx3 missing")
	}
	bad := NewJob(sp, system.Config{ScaleDiv: 4096, Cores: -1, InstrPerCore: 1000})
	r := New(Options{Jobs: 1})
	for round := 0; round < 2; round++ {
		failureReport(t, r.RunAll(context.Background(), []Job{bad}), 1, "invalid-config")
	}
	if _, err := r.Get(context.Background(), bad); !IsPermanent(err) {
		t.Fatalf("Get: err = %v, want the memoized configuration error", err)
	}
	if s, ok := r.Metrics().Get("runner/cells_failed"); !ok || s.Value != 1 {
		t.Fatalf("runner/cells_failed = %+v, want 1 (one attempt)", s)
	}
}

// TestChaosCorruptCacheQuarantinedAndRecomputed: end-to-end through the
// runner — a cache whose every read is corrupted quarantines each entry,
// recomputes each cell, and the sweep still produces the full grid.
func TestChaosCorruptCacheQuarantinedAndRecomputed(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	jobs := testJobs(n)

	var first atomic.Int64
	c1 := openTestCache(t, dir)
	r1 := New(Options{Jobs: 2, Cache: c1, Execute: countingExecute(&first, 0)})
	if err := r1.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	var second atomic.Int64
	c2 := openTestCache(t, dir)
	c2.SetFaults(faultinject.NewPlan(7, faultinject.Rule{
		Site: faultinject.SiteCacheLoad, Kind: faultinject.Corrupt, Prob: 1,
	}))
	r2 := New(Options{Jobs: 2, Cache: c2, Execute: countingExecute(&second, 0)})
	if err := r2.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := second.Load(); got != n {
		t.Fatalf("recomputations = %d, want %d (every cached entry was corrupted)", got, n)
	}
	if got := c2.CorruptCount(); got != n {
		t.Fatalf("CorruptCount = %d, want %d", got, n)
	}
	if q := c2.QuarantinedEntries(); len(q) != n {
		t.Fatalf("quarantined %d entries, want %d", len(q), n)
	}
	// The recomputed grids agree with the original run.
	a, b := r1.Results(), r2.Results()
	if len(a) != len(b) {
		t.Fatalf("grid sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cycles != b[i].Cycles {
			t.Fatalf("cell %d differs after recompute: %d vs %d", i, a[i].Cycles, b[i].Cycles)
		}
	}
}
