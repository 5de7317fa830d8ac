package runner

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// testJobs builds n distinct cheap jobs (real specs, varying seeds).
func testJobs(n int) []Job {
	spec, ok := workload.SpecByName("sphinx3")
	if !ok {
		panic("sphinx3 missing")
	}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = NewJob(spec, system.Config{
			ScaleDiv: 4096, Cores: 1, InstrPerCore: 1000, Seed: uint64(i + 1),
		})
	}
	return jobs
}

// countingExecute returns an Execute hook that counts invocations and
// derives a deterministic fake Result from the job.
func countingExecute(n *atomic.Int64, delay time.Duration) func(context.Context, Job) system.Result {
	return func(ctx context.Context, j Job) system.Result {
		n.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return system.Result{Benchmark: j.Specs[0].Name, Cycles: j.Cfg.Seed * 100}
	}
}

func TestSingleflightDedup(t *testing.T) {
	var n atomic.Int64
	r := New(Options{Jobs: 8, Execute: countingExecute(&n, time.Millisecond)})
	jobs := testJobs(5)
	// Feed every job three times; each cell must execute exactly once.
	tripled := append(append(append([]Job{}, jobs...), jobs...), jobs...)
	if err := r.RunAll(context.Background(), tripled); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 5 {
		t.Fatalf("executions = %d, want 5", got)
	}
	if r.Len() != 5 {
		t.Fatalf("memoized cells = %d, want 5", r.Len())
	}
}

func TestConcurrentGetExecutesOnce(t *testing.T) {
	var n atomic.Int64
	r := New(Options{Jobs: 4, Execute: countingExecute(&n, 5*time.Millisecond)})
	job := testJobs(1)[0]
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Get(context.Background(), job)
			if err != nil {
				t.Error(err)
			}
			if res.Cycles != 100 {
				t.Errorf("Cycles = %d, want 100", res.Cycles)
			}
		}()
	}
	wg.Wait()
	if got := n.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

func TestPanicBecomesError(t *testing.T) {
	var n atomic.Int64
	r := New(Options{Jobs: 2, Execute: func(ctx context.Context, j Job) system.Result {
		if j.Cfg.Seed == 2 {
			panic("boom")
		}
		n.Add(1)
		return system.Result{Cycles: j.Cfg.Seed}
	}})
	rep := failureReport(t, r.RunAll(context.Background(), testJobs(4)), 1, "panic")
	if c := rep.Cells[0]; !strings.Contains(c.Error, "boom") || !strings.Contains(c.Error, "sphinx3") {
		t.Fatalf("failure missing context: %+v", c)
	}
	// The other cells still completed.
	if got := n.Load(); got != 3 {
		t.Fatalf("surviving executions = %d, want 3", got)
	}
	if r.Len() != 3 {
		t.Fatalf("memoized cells = %d, want 3", r.Len())
	}
}

// TestFailedCellAttemptedOnce: a failing cell requested through RunAll,
// RunAll again and Get is attempted once; every request that holds it gets
// its error, and a plan that does not hold it reports no failure.
func TestFailedCellAttemptedOnce(t *testing.T) {
	jobs := testJobs(3)
	plan := faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteJobRun, Kind: faultinject.Error, Prob: 1, Match: "|seed=2|",
	})
	var n atomic.Int64
	r := New(Options{Jobs: 2, Execute: countingExecute(&n, 0), Faults: plan})
	for round := 0; round < 2; round++ {
		rep := failureReport(t, r.RunAll(context.Background(), jobs), 1, "error")
		if rep.Cells[0].Key != jobs[1].Key() {
			t.Fatalf("round %d: failed cell = %s, want seed 2", round, rep.Cells[0].Name)
		}
	}
	if _, err := r.Get(context.Background(), jobs[1]); err == nil || !strings.Contains(err.Error(), "injected error") {
		t.Fatalf("Get: err = %v, want the memoized injected error", err)
	}
	if got := plan.Fires(); got != 1 {
		t.Fatalf("failing cell attempted %d times, want once", got)
	}
	if got := n.Load(); got != 2 {
		t.Fatalf("healthy executions = %d, want 2", got)
	}
	// A plan without the failed cell reports no failure.
	if err := r.RunAll(context.Background(), []Job{jobs[0], jobs[2]}); err != nil {
		t.Fatalf("plan of healthy cells: err = %v, want nil", err)
	}
}

func TestCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	release := make(chan struct{})
	r := New(Options{Jobs: 1, Execute: func(ctx context.Context, j Job) system.Result {
		n.Add(1)
		<-release
		return system.Result{}
	}})
	done := make(chan error, 1)
	go func() { done <- r.RunAll(ctx, testJobs(50)) }()
	for n.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release) // let the in-flight cell finish
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAll did not drain after cancellation")
	}
	// Far fewer than 50 cells ran: the pool stopped picking up new work.
	if got := n.Load(); got >= 50 {
		t.Fatalf("executions = %d, want < 50", got)
	}
}

func TestResultsDeterministicAcrossWorkerCounts(t *testing.T) {
	grid := func(workers int) []system.Result {
		var n atomic.Int64
		r := New(Options{Jobs: workers, Execute: countingExecute(&n, time.Millisecond)})
		jobs := testJobs(12)
		// Shuffle-ish: feed in a different order per worker count.
		if workers > 1 {
			for i, j := 0, len(jobs)-1; i < j; i, j = i+1, j-1 {
				jobs[i], jobs[j] = jobs[j], jobs[i]
			}
		}
		if err := r.RunAll(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		return r.Results()
	}
	serial, parallel := grid(1), grid(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Results() grid differs between serial and parallel runs")
	}
}

func TestProgressReporting(t *testing.T) {
	var buf syncBuffer
	var n atomic.Int64
	r := New(Options{Jobs: 2, Progress: &buf, Execute: countingExecute(&n, 0)})
	if err := r.RunAll(context.Background(), testJobs(3)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 cells") {
		t.Fatalf("progress output missing summary: %q", out)
	}
}

// TestParallelOverlap demonstrates the wall-clock win: 8 sleep-bound cells
// at 8 workers must overlap, finishing in far less than the 400ms a serial
// drain takes (generous 2x margin for loaded machines).
func TestParallelOverlap(t *testing.T) {
	var n atomic.Int64
	r := New(Options{Jobs: 8, Execute: countingExecute(&n, 50*time.Millisecond)})
	start := time.Now()
	if err := r.RunAll(context.Background(), testJobs(8)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("8x50ms cells took %v at 8 workers; want well under the 400ms serial time", elapsed)
	}
}

// TestRealSimulationThroughRunner runs actual simulator cells in parallel
// and checks they match a direct serial system.Run.
func TestRealSimulationThroughRunner(t *testing.T) {
	spec, _ := workload.SpecByName("sphinx3")
	cfgs := []system.Config{
		{Org: system.Baseline, ScaleDiv: 4096, Cores: 2, InstrPerCore: 20_000, Seed: 3},
		{Org: system.CAMEO, ScaleDiv: 4096, Cores: 2, InstrPerCore: 20_000, Seed: 3},
		{Org: system.Cache, ScaleDiv: 4096, Cores: 2, InstrPerCore: 20_000, Seed: 3},
	}
	var jobs []Job
	for _, cfg := range cfgs {
		jobs = append(jobs, NewJob(spec, cfg))
	}
	r := New(Options{Jobs: 3})
	if err := r.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		got, err := r.Get(context.Background(), jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		want := system.Run(spec, cfg)
		if got.Cycles != want.Cycles || got.Demands != want.Demands {
			t.Errorf("org %v: parallel run (%d cycles, %d demands) != serial (%d, %d)",
				cfg.Org, got.Cycles, got.Demands, want.Cycles, want.Demands)
		}
	}
}

// syncBuffer is a goroutine-safe strings.Builder for progress capture.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
