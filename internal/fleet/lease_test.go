package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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
	// Every method must be a safe no-op on the nil table — the dispatch
	// path calls them unconditionally.
	lt.grant("h", "w", time.Now())
	lt.release("h")
	if got := lt.expired(time.Now()); got != nil {
		t.Fatalf("nil table expired = %v, want nil", got)
	}
}

func TestLeaseTableGrantExpireRelease(t *testing.T) {
	t0 := time.UnixMilli(1_000_000)
	lt := newLeaseTable(100 * time.Millisecond)

	lt.grant("bbb", "http://w1", t0)
	lt.grant("abc", "http://w2", t0)
	lt.grant("aaa", "http://w2", t0.Add(50*time.Millisecond))
	lt.grant("ccc", "http://w1", t0)
	lt.grant("ddd", "http://w1", t0)
	// A re-grant replaces the lease: the newest holder owns the cell, on a
	// fresh TTL.
	lt.grant("ccc", "http://w3", t0.Add(60*time.Millisecond))
	// Release drops a lease outright: it never lapses.
	lt.release("ddd")

	// Nothing lapses before the first TTL elapses.
	if got := lt.expired(t0.Add(99 * time.Millisecond)); got != nil {
		t.Fatalf("expired before ttl = %+v, want none", got)
	}
	// Each grant lapses at its own expiry, sorted by hash, and is removed.
	for _, step := range []struct {
		at   time.Duration
		want []cellLease
	}{
		{100 * time.Millisecond, []cellLease{
			{hash: "abc", worker: "http://w2", expires: t0.Add(100 * time.Millisecond)},
			{hash: "bbb", worker: "http://w1", expires: t0.Add(100 * time.Millisecond)},
		}},
		{150 * time.Millisecond, []cellLease{{hash: "aaa", worker: "http://w2", expires: t0.Add(150 * time.Millisecond)}}},
		{160 * time.Millisecond, []cellLease{{hash: "ccc", worker: "http://w3", expires: t0.Add(160 * time.Millisecond)}}},
		{time.Hour, nil},
	} {
		if got := lt.expired(t0.Add(step.at)); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("expired at t0+%s = %+v, want %+v", step.at, got, step.want)
		}
	}
}

// TestLeaseExpiryRedispatch: a worker stalls on a cell far past its lease.
// The reaper must notice the lapsed grant and hand the cell back to the
// queues, where the healthy worker picks it up, and the sweep completes
// with single-node bytes. The stalled worker answers before the sweep can
// return, so the per-key dedupe drops its late result; a straggler still
// computing when the sweep resolves is cancelled instead (see
// TestResolvedSweepCancelsStragglers).
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

// TestLapsedLeaseSkipsHolder: a worker with idle dispatch slots stalls on
// one cell past its lease. The reaper must queue that cell on the active
// peer, where the holder's idle slots can neither pop nor steal it, not
// hand it back to the holder: the holder enters its stuck cell exactly
// once, and the sweep still answers with single-node bytes.
func TestLapsedLeaseSkipsHolder(t *testing.T) {
	const body = `{"org":"cameo","benchmarks":["milc"],"sweep":"seed","values":[11,12]}`
	want := singleNodeReference(t, body)

	var (
		mu      sync.Mutex
		stuck   string // key of the first cell the holder entered
		entries int    // the holder's entries into that cell
	)
	stuckIn := make(chan struct{})
	holderExec := func(ctx context.Context, j runner.Job) system.Result {
		mu.Lock()
		if stuck == "" {
			stuck = j.Key()
			close(stuckIn)
		}
		isStuck := j.Key() == stuck
		if isStuck {
			entries++
		}
		mu.Unlock()
		if isStuck {
			// Stalled until the resolved sweep cancels this straggler.
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
			}
		}
		return coordFakeExecute(ctx, j)
	}
	// The peer computes nothing until the holder has stalled, so the
	// holder always takes a cell and its lease lapses.
	peerExec := func(ctx context.Context, j runner.Job) system.Result {
		select {
		case <-stuckIn:
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	_, holder := newFleetWorker(t, server.Options{Execute: holderExec, MaxInflight: 3, Jobs: 1})
	_, peer := newFleetWorker(t, server.Options{Execute: peerExec})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:  []string{holder.URL, peer.URL},
		LeaseTTL: 100 * time.Millisecond,
	})

	resp, got := postJSON(t, cts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sweep differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}
	if expired := counterValue(t, co.Metrics(), "fleet/leases_expired"); expired == 0 {
		t.Error("leases_expired = 0 — the holder's grant never lapsed")
	}
	mu.Lock()
	defer mu.Unlock()
	if entries != 1 {
		t.Errorf("holder entered its stuck cell %d times, want 1: the lapsed lease handed the cell back to it", entries)
	}
}

// TestConcurrentSweepsHoldTheirOwnLeases: two sweeps share a cell. Sweep
// A dispatches it to its answer-affinity home, which stalls on it; sweep
// B, posted once the home has entered the cell, has it on record for the
// other worker, which answers at once. B's dispatch and answer must leave
// A's lease alone, so A's lease lapses and A finishes on the peer long
// before the stall ends. Both answer with single-node bytes.
func TestConcurrentSweepsHoldTheirOwnLeases(t *testing.T) {
	const (
		bodyA = `{"org":"cameo","benchmarks":["milc"],"sweep":"seed","values":[11]}`
		bodyB = `{"org":"cameo","benchmarks":["milc"],"sweep":"seed","values":[11,12]}`
		stall = 3 * time.Second
	)
	wantA, wantB := singleNodeReference(t, bodyA), singleNodeReference(t, bodyB)

	entered := make(chan struct{})
	var enterOnce sync.Once
	stallExec := func(ctx context.Context, j runner.Job) system.Result {
		if j.Cfg.Seed == 11 {
			enterOnce.Do(func() { close(entered) })
			select {
			case <-time.After(stall):
			case <-ctx.Done():
			}
		}
		return coordFakeExecute(ctx, j)
	}
	_, home := newFleetWorker(t, server.Options{Execute: stallExec, CacheDir: t.TempDir()})
	_, peer := newFleetWorker(t, server.Options{CacheDir: t.TempDir()})
	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:  []string{home.URL, peer.URL},
		LeaseTTL: 100 * time.Millisecond,
	})
	req, err := sweepapi.DecodeRequest(strings.NewReader(bodyA))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sweepapi.BuildGrid(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := grid.Jobs[0].Hash()

	co.answers.Put(shared, home.URL)
	start := time.Now()
	doneA := postAsync(cts.URL, bodyA)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep A's home never entered the shared cell")
	}
	co.answers.Put(shared, peer.URL)
	gotB := <-postAsync(cts.URL, bodyB)
	if gotB.status != http.StatusOK || !bytes.Equal(gotB.body, wantB) {
		t.Fatalf("sweep B: status %d, identical=%v: %s", gotB.status, bytes.Equal(gotB.body, wantB), gotB.body)
	}
	gotA := <-doneA
	elapsed := time.Since(start)
	if gotA.status != http.StatusOK || !bytes.Equal(gotA.body, wantA) {
		t.Fatalf("sweep A: status %d, identical=%v: %s", gotA.status, bytes.Equal(gotA.body, wantA), gotA.body)
	}
	if elapsed > stall/2 {
		t.Errorf("sweep A took %s, want well under its home's %s stall: sweep B took over A's lease", elapsed, stall)
	}
	if expired := counterOrZero(co.Metrics(), "fleet/leases_expired"); expired == 0 {
		t.Error("leases_expired = 0 — sweep A's lease never lapsed")
	}
}

// TestRequeueExpiredPicksActivePeer drives requeueExpired directly. A
// lapsed cell moves to the holder's active peer, which becomes its home,
// never to the holder or a paused suspect, and the holder's queued cells
// lose their home. With no active peer the cell stays with the holder,
// queued nowhere, on a fresh lease.
func TestRequeueExpiredPicksActivePeer(t *testing.T) {
	const holder, suspect, peer = "http://holder:1", "http://suspect:1", "http://peer:1"
	ring := NewRing(0)
	for _, w := range []string{holder, suspect, peer} {
		ring.Add(w)
	}
	newRun := func(peerStatus runStatus) (s *sweepRun, stuck, held *fleetCell) {
		s = &sweepRun{
			co:     &Coordinator{ring: ring},
			leases: newLeaseTable(time.Minute),
			workers: map[string]*runWorker{
				holder:  {status: runActive},
				suspect: {status: runPaused},
				peer:    {status: peerStatus},
			},
			queues:  map[string][]*fleetCell{},
			byHash:  map[string]*fleetCell{},
			pending: 2,
		}
		s.cond = sync.NewCond(&s.mu)
		stuck = &fleetCell{key: "stuck", hash: "h-stuck", home: holder}
		held = &fleetCell{key: "held", hash: "h-held", home: holder}
		s.byHash[stuck.hash], s.byHash[held.hash] = stuck, held
		s.queues[holder] = []*fleetCell{held}
		return s, stuck, held
	}
	lapsed := []cellLease{{hash: "h-stuck", worker: holder}}

	s, stuck, held := newRun(runActive)
	if n := s.requeueExpired(lapsed); n != 1 {
		t.Fatalf("moved %d cells, want 1", n)
	}
	if stuck.home != peer || !slices.Contains(s.queues[peer], stuck) {
		t.Fatalf("lapsed cell has home %q and peer queue %v, want both on %s", stuck.home, s.queues[peer], peer)
	}
	if held.home != "" {
		t.Errorf("holder's queued cell kept home %q, want none", held.home)
	}

	s, stuck, _ = newRun(runPaused)
	if n := s.requeueExpired(lapsed); n != 0 {
		t.Fatalf("moved %d cells with no active peer, want 0", n)
	}
	for w, q := range s.queues {
		if slices.Contains(q, stuck) {
			t.Fatalf("lapsed cell queued on %s with no active peer", w)
		}
	}
	if got := s.leases.expired(time.Now().Add(time.Minute)); len(got) != 1 || got[0].worker != holder {
		t.Fatalf("leases after a lapse with no active peer = %+v, want one re-granted to the holder", got)
	}
}

// stalledHome is a two-worker fleet in which the coordinator has every
// cell of fleetSweepBody on record for the stalled worker, a caching
// worker with one admission slot that another tenant's sweep holds until
// release is called. Its peer counts the cells it simulates.
type stalledHome struct {
	co         *Coordinator
	cts        *httptest.Server
	stalled    *server.Server
	peerRuns   atomic.Int64
	cells      int
	release    func()
	tenantDone chan struct{}
}

// newStalledHome builds the fleet and returns once the tenant holds the
// stalled worker's slot. maxQueue is the stalled worker's admission queue:
// 0 sheds the coordinator's dispatches there, 1 queues one of them.
func newStalledHome(t *testing.T, maxQueue int) *stalledHome {
	t.Helper()
	const tenantBody = `{"org":"cameo","benchmarks":["sphinx3"],"sweep":"seed","values":[1]}`
	h := &stalledHome{tenantDone: make(chan struct{})}
	tenantIn, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	h.release = func() { releaseOnce.Do(func() { close(release) }) }
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
	peerExec := func(ctx context.Context, j runner.Job) system.Result {
		h.peerRuns.Add(1)
		return coordFakeExecute(ctx, j)
	}
	var stalled *httptest.Server
	h.stalled, stalled = newFleetWorker(t, server.Options{Execute: stalledExec, MaxInflight: 1, MaxQueue: maxQueue, Jobs: 1, CacheDir: t.TempDir()})
	_, peer := newFleetWorker(t, server.Options{Execute: peerExec, CacheDir: t.TempDir()})
	h.co, h.cts = newTestCoordinator(t, CoordinatorOptions{
		Workers:  []string{stalled.URL, peer.URL},
		LeaseTTL: 100 * time.Millisecond,
	})
	t.Cleanup(h.release) // first of the cleanups: a drain waits for the tenant

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
		h.co.answers.Put(j.Hash(), stalled.URL)
	}
	h.cells = len(grid.Jobs)

	go func() {
		defer close(h.tenantDone)
		if resp, err := http.Post(stalled.URL+"/sweep", "application/json", strings.NewReader(tenantBody)); err == nil {
			resp.Body.Close()
		}
	}()
	<-tenantIn
	return h
}

type sweepReply struct {
	status int
	body   []byte
}

// postAsync posts a sweep and delivers its reply on the returned channel.
func postAsync(url, body string) <-chan sweepReply {
	done := make(chan sweepReply, 1)
	go func() {
		resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			done <- sweepReply{}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- sweepReply{resp.StatusCode, b}
	}()
	return done
}

// waitPeerRanAll waits until the peer has simulated every cell.
func (h *stalledHome) waitPeerRanAll(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.peerRuns.Load() < int64(h.cells) {
		if time.Now().After(deadline) {
			h.release()
			t.Fatalf("peer simulated %d of %d cells in 5s: the stalled home kept its queue after its lease lapsed", h.peerRuns.Load(), h.cells)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaseExpiryFreesStalledHome is TestLeaseExpiryRedispatch with
// answer affinity on: a repeat sweep whose every cell is recorded for a
// caching worker, while another tenant's sweep holds that worker's only
// admission slot. Its dispatches are shed past their lease; from the lapse
// on, its idle peer must steal every cell the stalled worker was to answer
// instead of leaving them queued behind it.
func TestLeaseExpiryFreesStalledHome(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)
	h := newStalledHome(t, 0)
	sweepDone := postAsync(h.cts.URL, fleetSweepBody)
	h.waitPeerRanAll(t)
	h.release()
	<-h.tenantDone
	got := <-sweepDone
	if got.status != http.StatusOK {
		t.Fatalf("repeat sweep: status %d: %s", got.status, got.body)
	}
	if !bytes.Equal(got.body, want) {
		t.Errorf("repeat sweep differs from single-node:\nfleet:  %s\nsingle: %s", got.body, want)
	}
	if expired := counterValue(t, h.co.Metrics(), "fleet/leases_expired"); expired == 0 {
		t.Error("leases_expired = 0 — the stalled worker's grant never lapsed")
	}
}

// TestResolvedSweepCancelsStragglers is TestLeaseExpiryFreesStalledHome
// with the tenant never letting go: once the peer has simulated every
// cell, the stalled worker's one dispatch still waits in its admission
// queue for a slot that does not free up. The sweep has resolved, so it
// must answer at once with single-node bytes, cancel that dispatch (the
// worker counts a client gone while queued), and record no failure and
// no suspicion for it.
func TestResolvedSweepCancelsStragglers(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)
	h := newStalledHome(t, 1)
	sweepDone := postAsync(h.cts.URL, fleetSweepBody)
	h.waitPeerRanAll(t)
	var got sweepReply
	select {
	case got = <-sweepDone:
	case <-time.After(time.Second):
		h.release()
		t.Fatal("resolved sweep still waiting after 1s for the stalled worker's dispatch")
	}
	if got.status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", got.status, got.body)
	}
	if !bytes.Equal(got.body, want) {
		t.Errorf("sweep differs from single-node:\nfleet:  %s\nsingle: %s", got.body, want)
	}
	waitFor(t, 2*time.Second, "the stalled worker to drop the cancelled dispatch", func() bool {
		return counterOrZero(h.stalled.Metrics(), "server/cancelled") >= 1
	})
	snap := h.co.Metrics()
	for _, name := range []string{"fleet/cells_failed", "fleet/suspects"} {
		if got := counterOrZero(snap, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// TestLeaseTableConcurrent hammers the table from racing grant/expire/
// release goroutines — run with -race.
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
				lt.release("h")
			}
		}()
	}
	wg.Wait()
}
