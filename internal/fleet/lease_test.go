package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cameo/internal/runner"
	"cameo/internal/server"
	"cameo/internal/sweepapi"
	"cameo/internal/system"
)

func TestLeaseTableDisabled(t *testing.T) {
	lt := newLeaseTable(0)
	if lt != nil {
		t.Fatal("ttl 0 should disable leasing (nil table)")
	}
	// Every method must be a safe no-op on the nil table — the single-
	// coordinator paths call them unconditionally.
	lt.grant("h", "w", time.Now())
	lt.release("h")
	if got := lt.expired(time.Now()); got != nil {
		t.Fatalf("nil table expired = %v, want nil", got)
	}
	if got := lt.holder("h"); got != "" {
		t.Fatalf("nil table holder = %q, want empty", got)
	}
	if got := lt.snapshot(); got != nil {
		t.Fatalf("nil table snapshot = %v, want nil", got)
	}
	if got := lt.adopt([]runner.CellLease{{Hash: "h"}}, time.Now()); got != nil {
		t.Fatalf("nil table adopt = %v, want nil", got)
	}
}

func TestLeaseTableGrantExpireRelease(t *testing.T) {
	t0 := time.UnixMilli(1_000_000)
	lt := newLeaseTable(100 * time.Millisecond)

	lt.grant("bbb", "http://w1", t0)
	lt.grant("aaa", "http://w2", t0.Add(50*time.Millisecond))
	if got := lt.holder("bbb"); got != "http://w1" {
		t.Fatalf("holder(bbb) = %q, want http://w1", got)
	}

	// Snapshot is sorted by hash and carries absolute expiry stamps.
	snap := lt.snapshot()
	want := []runner.CellLease{
		{Hash: "aaa", Worker: "http://w2", ExpiresUnixMS: t0.Add(150 * time.Millisecond).UnixMilli()},
		{Hash: "bbb", Worker: "http://w1", ExpiresUnixMS: t0.Add(100 * time.Millisecond).UnixMilli()},
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}

	// Nothing lapses before the first TTL elapses.
	if got := lt.expired(t0.Add(99 * time.Millisecond)); got != nil {
		t.Fatalf("expired before ttl = %v, want none", got)
	}
	// At t0+100ms only the first grant lapses — and is removed.
	if got := lt.expired(t0.Add(100 * time.Millisecond)); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("expired at ttl = %+v, want %+v", got, want[1:])
	}
	if got := lt.holder("bbb"); got != "" {
		t.Fatalf("expired lease still held by %q", got)
	}

	// A re-grant replaces the lease: the newest holder owns the cell.
	lt.grant("aaa", "http://w3", t0.Add(60*time.Millisecond))
	if got := lt.holder("aaa"); got != "http://w3" {
		t.Fatalf("re-granted holder = %q, want http://w3", got)
	}

	// Release drops it outright.
	lt.release("aaa")
	if got := lt.snapshot(); len(got) != 0 {
		t.Fatalf("snapshot after release = %+v, want empty", got)
	}
}

func TestLeaseTableAdopt(t *testing.T) {
	t0 := time.UnixMilli(2_000_000)
	lt := newLeaseTable(time.Second)
	live := lt.adopt([]runner.CellLease{
		{Hash: "gone", Worker: "http://w1", ExpiresUnixMS: t0.Add(-time.Millisecond).UnixMilli()},
		{Hash: "zz", Worker: "http://w2", ExpiresUnixMS: t0.Add(300 * time.Millisecond).UnixMilli()},
		{Hash: "aa", Worker: "http://w3", ExpiresUnixMS: t0.Add(200 * time.Millisecond).UnixMilli()},
		{Hash: "", Worker: "http://junk", ExpiresUnixMS: t0.Add(time.Hour).UnixMilli()},
	}, t0)

	// Expired and malformed entries are dropped; live ones come back sorted.
	if len(live) != 2 || live[0].Hash != "aa" || live[1].Hash != "zz" {
		t.Fatalf("adopt live = %+v, want [aa zz]", live)
	}
	if got := lt.holder("gone"); got != "" {
		t.Fatalf("adopted an already-expired lease: holder = %q", got)
	}
	// The adopted leases keep their original expiry: they lapse on the prior
	// coordinator's schedule, not a fresh TTL from now.
	if got := lt.expired(t0.Add(250 * time.Millisecond)); !reflect.DeepEqual(got, live[:1]) {
		t.Fatalf("expired after adopt = %+v, want %+v", got, live[:1])
	}
}

// TestLeaseExpiryRedispatch: a worker stalls on a cell far past its lease.
// The reaper must notice the lapsed grant and hand the cell back to the
// queues, where the healthy worker picks it up — the sweep completes with
// single-node bytes long before the straggler would have answered, and the
// straggler's late result is dropped by the per-key dedupe.
func TestLeaseExpiryRedispatch(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	// The healthy worker computes nothing until the stalled worker has
	// taken a cell. Otherwise it can drain both queues before the stalled
	// worker's only dispatch loop takes one, and no lease ever lapses.
	stalledEntered := make(chan struct{})
	var enterOnce sync.Once
	stallExec := func(ctx context.Context, j runner.Job) system.Result {
		enterOnce.Do(func() { close(stalledEntered) })
		select {
		case <-time.After(1200 * time.Millisecond):
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	healthyExec := func(ctx context.Context, j runner.Job) system.Result {
		select {
		case <-stalledEntered:
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	_, stalled := newFleetWorker(t, server.Options{Execute: stallExec, MaxInflight: 1, Jobs: 1})
	_, healthy := newFleetWorker(t, server.Options{Execute: healthyExec})

	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:  []string{stalled.URL, healthy.URL},
		LeaseTTL: 100 * time.Millisecond,
	})

	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-dispatched sweep differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}
	snap := co.Metrics()
	if granted := counterValue(t, snap, "fleet/leases_granted"); granted == 0 {
		t.Error("leases_granted = 0 — leasing never engaged")
	}
	if expired := counterValue(t, snap, "fleet/leases_expired"); expired == 0 {
		t.Error("leases_expired = 0 — the stalled worker's grant never lapsed")
	}
}

// TestLeaseExpiryFreesStalledHome is TestLeaseExpiryRedispatch with
// answer affinity on: a repeat sweep whose every cell is recorded for a
// caching worker, while another tenant's sweep holds that worker's only
// admission slot. Its one dispatch waits in the admission queue past its
// lease; from the lapse on, its idle peer must steal every cell the stalled
// worker was to answer instead of leaving them queued behind it.
func TestLeaseExpiryFreesStalledHome(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)
	const tenantBody = `{"org":"cameo","benchmarks":["sphinx3"],"sweep":"seed","values":[1]}`

	tenantIn, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	stalledExec := func(ctx context.Context, j runner.Job) system.Result {
		if j.Specs[0].Name == "sphinx3" {
			close(tenantIn)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return coordFakeExecute(ctx, j)
	}
	var peerRuns atomic.Int64
	peerExec := func(ctx context.Context, j runner.Job) system.Result {
		peerRuns.Add(1)
		return coordFakeExecute(ctx, j)
	}
	_, stalled := newFleetWorker(t, server.Options{Execute: stalledExec, MaxInflight: 1, Jobs: 1, CacheDir: t.TempDir()})
	_, peer := newFleetWorker(t, server.Options{Execute: peerExec, CacheDir: t.TempDir()})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:  []string{stalled.URL, peer.URL},
		LeaseTTL: 100 * time.Millisecond,
	})
	t.Cleanup(unblock) // first of the cleanups: a drain waits for the tenant

	// The stalled worker answers the sweep once, and the coordinator has
	// it on record as the home of every cell.
	if resp, got := postJSON(t, stalled.URL, fleetSweepBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("first sweep: status %d: %s", resp.StatusCode, got)
	}
	req, err := sweepapi.DecodeRequest(strings.NewReader(fleetSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sweepapi.BuildGrid(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range grid.Jobs {
		co.answers.Put(j.Hash(), stalled.URL)
	}

	tenantDone := make(chan struct{})
	go func() {
		defer close(tenantDone)
		if resp, err := http.Post(stalled.URL+"/sweep", "application/json", strings.NewReader(tenantBody)); err == nil {
			resp.Body.Close()
		}
	}()
	<-tenantIn

	type reply struct {
		status int
		body   []byte
	}
	sweepDone := make(chan reply, 1)
	go func() {
		resp, err := http.Post(cts.URL+"/sweep", "application/json", strings.NewReader(fleetSweepBody))
		if err != nil {
			sweepDone <- reply{}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		sweepDone <- reply{resp.StatusCode, b}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for peerRuns.Load() < int64(len(grid.Jobs)) {
		if time.Now().After(deadline) {
			unblock()
			t.Fatalf("peer simulated %d of %d cells in 5s: the stalled home kept its queue after its lease lapsed", peerRuns.Load(), len(grid.Jobs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	unblock()
	<-tenantDone
	got := <-sweepDone
	if got.status != http.StatusOK {
		t.Fatalf("repeat sweep: status %d: %s", got.status, got.body)
	}
	if !bytes.Equal(got.body, want) {
		t.Errorf("repeat sweep differs from single-node:\nfleet:  %s\nsingle: %s", got.body, want)
	}
	if expired := counterValue(t, co.Metrics(), "fleet/leases_expired"); expired == 0 {
		t.Error("leases_expired = 0 — the stalled worker's grant never lapsed")
	}
}

// TestLeaseTableConcurrent hammers the table from racing grant/expire/
// snapshot goroutines — run with -race.
func TestLeaseTableConcurrent(t *testing.T) {
	lt := newLeaseTable(time.Millisecond)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				lt.grant("h", "w", start)
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				lt.expired(start.Add(time.Duration(k) * time.Millisecond))
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				lt.snapshot()
				lt.holder("h")
			}
		}()
	}
	wg.Wait()
}
