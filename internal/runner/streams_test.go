package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// recordings wraps a runner's recorder to count the recordings it makes
// and the ones the garbage collector has since reclaimed.
type recordings struct {
	calls     atomic.Int64
	made      atomic.Int64
	collected atomic.Int64
}

func trackRecordings(r *Runner) *recordings {
	rs := &recordings{}
	inner := r.record
	r.record = func(ctx context.Context, j Job) (*system.Recording, error) {
		rs.calls.Add(1)
		rec, err := inner(ctx, j)
		if rec != nil {
			rs.made.Add(1)
			runtime.SetFinalizer(rec, func(*system.Recording) { rs.collected.Add(1) })
		}
		return rec, err
	}
	return rs
}

// requireAllCollected fails unless every recording made so far becomes
// unreachable while r, with its memoized results, stays alive.
func (rs *recordings) requireAllCollected(t *testing.T, r *Runner) {
	t.Helper()
	defer runtime.KeepAlive(r)
	deadline := time.Now().Add(5 * time.Second)
	for rs.collected.Load() < rs.made.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d recordings still reachable after RunAll returned",
				rs.made.Load()-rs.collected.Load(), rs.made.Load())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// sharedJobs builds one cell per organization, all of one stream identity.
func sharedJobs(seed uint64, orgs ...system.OrgKind) []Job {
	spec, _ := workload.SpecByName("sphinx3")
	jobs := make([]Job, len(orgs))
	for i, org := range orgs {
		jobs[i] = NewJob(spec, system.Config{Org: org, ScaleDiv: 4096, Cores: 2, InstrPerCore: 8_000, Seed: seed})
	}
	return jobs
}

// requireLiveResults fails unless every job's memoized result equals a
// direct Job.TryRun byte for byte.
func requireLiveResults(t *testing.T, r *Runner, jobs []Job) {
	t.Helper()
	for _, j := range jobs {
		got, ok := r.Lookup(j.Key())
		if !ok {
			t.Fatalf("%s: no result", j.Name())
		}
		want, err := j.TryRun(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) || !reflect.DeepEqual(got.Latency, want.Latency) {
			t.Fatalf("%s: plan result differs from TryRun:\n%s\n%s", j.Name(), gj, wj)
		}
	}
}

func TestPlanRecordsASharedIdentityOnce(t *testing.T) {
	r := New(Options{Jobs: 1})
	rs := trackRecordings(r)
	jobs := append(sharedJobs(1, system.Baseline, system.CAMEO, system.TLMStatic), sharedJobs(2, system.CAMEO)...)
	if err := r.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := rs.calls.Load(); got != 1 {
		t.Fatalf("recorded %d times, want once for the one shared identity", got)
	}
	requireLiveResults(t, r, jobs)
}

func TestPlanOfDistinctIdentitiesRecordsNothing(t *testing.T) {
	r := New(Options{Jobs: 2})
	rs := trackRecordings(r)
	jobs := append(sharedJobs(1, system.CAMEO), sharedJobs(2, system.CAMEO)...)
	jobs = append(jobs, sharedJobs(3, system.CAMEO)...)
	if err := r.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	// A second plan shares an identity with the first, but that cell is
	// memoized and will not execute, so its partner is used once.
	if err := r.RunAll(context.Background(), append(sharedJobs(1, system.CAMEO), sharedJobs(1, system.Baseline)...)); err != nil {
		t.Fatal(err)
	}
	if got := rs.calls.Load(); got != 0 {
		t.Fatalf("recorded %d times for single-use identities", got)
	}
}

// TestConcurrentCellsShareOneRecording: at two workers, cells of one
// identity run concurrently; one records, the others wait and replay.
// Run it under -race.
func TestConcurrentCellsShareOneRecording(t *testing.T) {
	r := New(Options{Jobs: 2})
	rs := trackRecordings(r)
	jobs := sharedJobs(4, system.Baseline, system.Cache, system.CAMEO, system.TLMDynamic, system.DoubleUse)
	if err := r.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := rs.calls.Load(); got != 1 {
		t.Fatalf("recorded %d times, want once", got)
	}
	requireLiveResults(t, r, jobs)
}

// TestFailedRecordingIsNeverPublished: a recorder that panics after
// recording in full must not leave its recording to the other cells; the
// panicking cell retries and every cell generates live.
func TestFailedRecordingIsNeverPublished(t *testing.T) {
	r := New(Options{Jobs: 1, Retries: 1, RetryBackoff: time.Millisecond})
	var calls atomic.Int64
	inner := r.record
	r.record = func(ctx context.Context, j Job) (*system.Recording, error) {
		calls.Add(1)
		if _, err := inner(ctx, j); err != nil {
			return nil, err
		}
		panic("recorder fails after recording")
	}
	jobs := sharedJobs(5, system.Baseline, system.CAMEO, system.TLMStatic)
	if err := r.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("recorder called %d times, want once: a failed recording sends the rest live", got)
	}
	requireLiveResults(t, r, jobs)
}

// TestNoRecordingOutlivesRunAll: whether the plan succeeds, loses a cell,
// or is cancelled, no recording is reachable once RunAll returns — not
// from the memo, the runner, or the results.
func TestNoRecordingOutlivesRunAll(t *testing.T) {
	t.Run("success", func(t *testing.T) {
		r := New(Options{Jobs: 2})
		rs := trackRecordings(r)
		if err := r.RunAll(context.Background(), sharedJobs(6, system.Baseline, system.CAMEO, system.Cache)); err != nil {
			t.Fatal(err)
		}
		if rs.made.Load() != 1 {
			t.Fatalf("made %d recordings", rs.made.Load())
		}
		rs.requireAllCollected(t, r)
	})
	t.Run("failed cell", func(t *testing.T) {
		plan := faultinject.NewPlan(1, faultinject.Rule{
			Site: faultinject.SiteJobRun, Kind: faultinject.Error, Prob: 1,
			Match: fmt.Sprintf("|org=%d|", system.CAMEO),
		})
		r := New(Options{Jobs: 1, Faults: plan})
		rs := trackRecordings(r)
		err := r.RunAll(context.Background(), sharedJobs(7, system.Baseline, system.CAMEO, system.Cache))
		if err == nil {
			t.Fatal("the injected failure did not fail the plan")
		}
		if rs.made.Load() != 1 {
			t.Fatalf("made %d recordings", rs.made.Load())
		}
		rs.requireAllCollected(t, r)
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r := New(Options{Jobs: 1})
		rs := trackRecordings(r)
		inner := r.record
		r.record = func(ctx context.Context, j Job) (*system.Recording, error) {
			rec, err := inner(ctx, j)
			cancel() // the plan is cancelled just as its recording completes
			return rec, err
		}
		err := r.RunAll(ctx, sharedJobs(8, system.Baseline, system.CAMEO, system.Cache))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rs.made.Load() != 1 {
			t.Fatalf("made %d recordings", rs.made.Load())
		}
		rs.requireAllCollected(t, r)
	})
}
