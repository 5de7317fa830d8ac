package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// coordFakeExecute mirrors the server tests' deterministic stub: results
// derive from the job alone, so any placement yields the same cell bytes.
func coordFakeExecute(_ context.Context, j runner.Job) system.Result {
	return system.Result{
		Org:          j.Cfg.Org.String(),
		Benchmark:    j.Specs[0].Name,
		Cycles:       j.Cfg.Seed*1000 + j.Cfg.InstrPerCore,
		Instructions: j.Cfg.InstrPerCore * uint64(j.Cfg.Cores),
		Demands:      uint64(j.Cfg.ScaleDiv),
	}
}

// newFleetWorker starts a real cameod server with the stubbed executor.
func newFleetWorker(t *testing.T, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	if opts.Execute == nil {
		opts.Execute = coordFakeExecute
	}
	if opts.Jobs == 0 {
		opts.Jobs = 2
	}
	s, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Drain() })
	return s, ts
}

func newTestCoordinator(t *testing.T, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

const fleetSweepBody = `{"org":"cameo","benchmarks":["milc","gcc","lbm"],"sweep":"seed","values":[7,3,11,5]}`

// singleNodeReference runs the sweep on one standalone worker and returns
// the exact response bytes — the bar every fleet size must match.
func singleNodeReference(t *testing.T, body string) []byte {
	t.Helper()
	_, ts := newFleetWorker(t, server.Options{})
	resp, b := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node reference failed: %d %s", resp.StatusCode, b)
	}
	return b
}

// TestFleetByteIdenticalAcrossWorkerCounts is the core fleet contract: the
// merged report at 1, 2, and 3 workers is byte-for-byte the single-node
// response.
func TestFleetByteIdenticalAcrossWorkerCounts(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)
	for _, n := range []int{1, 2, 3} {
		var urls []string
		for i := 0; i < n; i++ {
			_, ts := newFleetWorker(t, server.Options{})
			urls = append(urls, ts.URL)
		}
		_, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls})
		resp, got := postJSON(t, cts.URL, fleetSweepBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("n=%d: status %d: %s", n, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("n=%d: fleet response differs from single-node:\nfleet:  %s\nsingle: %s", n, got, want)
		}
	}
}

// TestFleetWorkerLossMidSweep kills a worker (failing dispatches and
// failing probes) partway through a sweep: it turns suspect, the survivor
// must steal its cells, and the sweep must still produce the single-node
// bytes. The lost worker stays suspect and joins the next sweep paused,
// where the survivor steals every cell the ring gives it.
func TestFleetWorkerLossMidSweep(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	_, survivor := newFleetWorker(t, server.Options{})

	// The doomed worker serves real sweeps until tripped, then fails
	// everything — including /healthz and /readyz, so it stays suspect.
	doomedSrv, err := server.New(server.Options{Execute: coordFakeExecute, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	var tripped atomic.Bool
	inner := doomedSrv.Handler()
	doomed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tripped.Load() {
			http.Error(w, "killed", http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/sweep" && served.Add(1) >= 2 {
			tripped.Store(true) // this cell still fails: trip before serving
			http.Error(w, "killed", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(doomed.Close)

	co, cts := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{survivor.URL, doomed.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectMisses:     1,
	})
	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-loss response differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}
	stolen := counterValue(t, co.Metrics(), "fleet/cells_stolen")
	if stolen == 0 {
		t.Errorf("cells_stolen = 0, want > 0 (the lost worker owned cells)")
	}
	waitFor(t, 5*time.Second, "the doomed worker suspect", func() bool {
		return co.mem.state(doomed.URL) == StateSuspect
	})
	resp2, got2 := postJSON(t, cts.URL, fleetSweepBody)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(got2, want) {
		t.Fatalf("second sweep after loss: status %d", resp2.StatusCode)
	}
	if got := counterValue(t, co.Metrics(), "fleet/cells_stolen"); got == stolen {
		t.Errorf("second sweep stole nothing, want the lost worker's cells stolen")
	}
	if st := co.mem.state(doomed.URL); st != StateSuspect {
		t.Errorf("lost worker after the second sweep is %v, want still suspect", st)
	}
	if got := counterValue(t, co.Metrics(), "fleet/suspects"); got != 1 {
		t.Errorf("suspects = %d, want 1", got)
	}
}

// TestFleetWorkSteal pairs a deliberately slow worker with a fast one: the
// fast worker must drain its own queue and then steal the straggler's
// tail, and the merged bytes still match single-node. Neither worker keeps
// results, so answer affinity stays off: a second sweep on the same
// coordinator places cells by the ring and steals again.
func TestFleetWorkSteal(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	slowExec := func(ctx context.Context, j runner.Job) system.Result {
		select {
		case <-time.After(150 * time.Millisecond):
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	_, slow := newFleetWorker(t, server.Options{Execute: slowExec, MaxInflight: 1, Jobs: 1})
	_, fast := newFleetWorker(t, server.Options{})

	co, cts := newTestCoordinator(t, CoordinatorOptions{Workers: []string{slow.URL, fast.URL}})
	var stolen uint64
	for sweep := 1; sweep <= 2; sweep++ {
		resp, got := postJSON(t, cts.URL, fleetSweepBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep %d: status %d: %s", sweep, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("sweep %d: stolen-work response differs from single-node", sweep)
		}
		n := counterValue(t, co.Metrics(), "fleet/cells_stolen")
		if n == stolen {
			t.Errorf("sweep %d: cells_stolen stayed at %d, want more (fast worker should have raided the slow queue)", sweep, n)
		}
		stolen = n
	}
}

// TestFleetSecondRunZeroRecompute is the shared-cache contract: after one
// fleet run, a second run — even at a different worker count, so the ring
// places cells on workers that never computed them — executes nothing.
// Every cell comes from a local or peer cache, asserted via the workers'
// cells_executed counters and the peer tier's hit counters.
func TestFleetSecondRunZeroRecompute(t *testing.T) {
	type node struct {
		srv  *server.Server
		ts   *httptest.Server
		tier *PeerTier
	}
	mkNode := func() *node {
		dc, err := runner.OpenDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dc.Close() })
		tier := NewPeerTier(dc, nil, time.Second)
		srv, ts := newFleetWorker(t, server.Options{Disk: dc, Cache: tier})
		return &node{srv: srv, ts: ts, tier: tier}
	}
	a, b := mkNode(), mkNode()
	a.tier.SetPeers([]string{b.ts.URL})
	b.tier.SetPeers([]string{a.ts.URL})

	_, cts := newTestCoordinator(t, CoordinatorOptions{Workers: []string{a.ts.URL, b.ts.URL}})
	resp, first := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp.StatusCode, first)
	}
	executedAfterFirst := counterValue(t, a.srv.Metrics(), "server/cells_executed") +
		counterValue(t, b.srv.Metrics(), "server/cells_executed")
	if executedAfterFirst == 0 {
		t.Fatalf("first run executed nothing — test is vacuous")
	}

	// Second run, same fleet: every cell is a local disk hit.
	resp2, second := postJSON(t, cts.URL, fleetSweepBody)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("second run: status %d, identical=%v", resp2.StatusCode, bytes.Equal(first, second))
	}
	executedAfterSecond := counterValue(t, a.srv.Metrics(), "server/cells_executed") +
		counterValue(t, b.srv.Metrics(), "server/cells_executed")
	if executedAfterSecond != executedAfterFirst {
		t.Errorf("second run recomputed %d cells, want 0", executedAfterSecond-executedAfterFirst)
	}

	// Third run through a FRESH worker with an empty cache, alone in the
	// fleet: the ring hands it every cell, and every one must arrive over
	// the peer protocol instead of recomputing.
	c := mkNode()
	c.tier.SetPeers([]string{a.ts.URL, b.ts.URL})
	_, cts3 := newTestCoordinator(t, CoordinatorOptions{Workers: []string{c.ts.URL}})
	resp3, third := postJSON(t, cts3.URL, fleetSweepBody)
	if resp3.StatusCode != http.StatusOK || !bytes.Equal(first, third) {
		t.Fatalf("fresh-worker run: status %d, identical=%v", resp3.StatusCode, bytes.Equal(first, third))
	}
	if got := counterValue(t, c.srv.Metrics(), "server/cells_executed"); got != 0 {
		t.Errorf("fresh worker executed %d cells, want 0 (peer cache should cover all)", got)
	}
	if got := counterValue(t, c.tier.Metrics(), "fleet/peercache/peer_hits"); got == 0 {
		t.Errorf("fresh worker peer_hits = 0, want > 0")
	}
}

// TestFleetExecutesEachNeededCellOnce is answer affinity's contract: two
// caching workers without peers, one slow enough that the other runs dry
// and steals. A sweep over cells an earlier sweep cached must simulate
// only the cells no worker answered before, and its repeat none: each
// answered cell goes back to the worker that holds it, and no thief takes
// it from there.
func TestFleetExecutesEachNeededCellOnce(t *testing.T) {
	slowExec := func(ctx context.Context, j runner.Job) system.Result {
		select {
		case <-time.After(60 * time.Millisecond):
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	slow, slowTS := newFleetWorker(t, server.Options{Execute: slowExec, MaxInflight: 1, Jobs: 1, CacheDir: t.TempDir()})
	fast, fastTS := newFleetWorker(t, server.Options{CacheDir: t.TempDir()})
	_, cts := newTestCoordinator(t, CoordinatorOptions{Workers: []string{slowTS.URL, fastTS.URL}})

	executed := func() uint64 {
		return counterValue(t, slow.Metrics(), "server/cells_executed") +
			counterValue(t, fast.Metrics(), "server/cells_executed")
	}
	// sweep posts seeds from..16 of two benchmarks and returns how many
	// cells the fleet simulated for it.
	sweep := func(from int) uint64 {
		t.Helper()
		seeds := make([]string, 0, 16)
		for s := from; s <= 16; s++ {
			seeds = append(seeds, strconv.Itoa(s))
		}
		body := `{"org":"cameo","benchmarks":["milc","gcc"],"sweep":"seed","values":[` + strings.Join(seeds, ",") + `]}`
		before := executed()
		resp, got := postJSON(t, cts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeds %d..16: status %d: %s", from, resp.StatusCode, got)
		}
		if want := singleNodeReference(t, body); !bytes.Equal(got, want) {
			t.Fatalf("seeds %d..16: fleet response differs from single-node:\nfleet:  %s\nsingle: %s", from, got, want)
		}
		return executed() - before
	}
	if got := sweep(9); got != 16 {
		t.Fatalf("first sweep simulated %d cells, want its 16", got)
	}
	if got := sweep(1); got != 16 {
		t.Errorf("second sweep simulated %d cells, want exactly the 16 uncached ones", got)
	}
	if got := sweep(1); got != 0 {
		t.Errorf("repeat sweep simulated %d cells, want 0", got)
	}
}

// TestStealSparesOnlyActiveHomes pins the limits of the steal rule: a
// thief takes what an active victim never answered and leaves the rest
// to it, but a paused suspect's answered cells are stolen like any other.
func TestStealSparesOnlyActiveHomes(t *testing.T) {
	const thief, victim = "http://thief", "http://victim"
	answered := &fleetCell{key: "answered", home: victim}
	fresh := &fleetCell{key: "fresh"}
	s := &sweepRun{
		workers: map[string]*runWorker{
			thief:  {status: runActive},
			victim: {status: runActive},
		},
		queues: map[string][]*fleetCell{victim: {answered, fresh}},
	}
	s.cond = sync.NewCond(&s.mu)
	key := func(fc *fleetCell) string {
		if fc == nil {
			return "nothing"
		}
		return fc.key
	}

	if got := s.stealLocked(thief); got != fresh {
		t.Fatalf("first steal from an active victim took %s, want fresh", key(got))
	}
	if got := s.stealLocked(thief); got != nil {
		t.Fatalf("second steal from an active victim took %s, want nothing: it answers that cell itself", key(got))
	}
	s.pauseWorker(victim)
	if got := s.stealLocked(thief); got != answered {
		t.Fatalf("steal from a paused suspect took %s, want its answered cell", key(got))
	}
}

// TestAnswerRecordDropsWholeAtBound: the coordinator's record grows to its
// bound, and a new hash past the bound drops every entry before it is
// added.
func TestAnswerRecordDropsWholeAtBound(t *testing.T) {
	co, _ := newTestCoordinator(t, CoordinatorOptions{Workers: []string{"http://127.0.0.1:1"}, HeartbeatInterval: time.Hour})
	for i := 0; i < answerRecordBound; i++ {
		co.answers.Put(strconv.Itoa(i), "http://a")
	}
	if n := co.answers.Len(); n != answerRecordBound {
		t.Fatalf("record holds %d entries, want %d", n, answerRecordBound)
	}
	co.answers.Put("new", "http://a")
	if n := co.answers.Len(); n != 1 {
		t.Fatalf("record holds %d entries after passing its bound, want 1", n)
	}
}

// TestCellResolvesOnce: a cell answered twice, once with a failure and
// once with a result, in either order, resolves once. That happens when a
// lapsed lease's holder answers late after the re-dispatch failed (a
// healthy worker answering 500, say). Counting both would resolve the
// sweep while another cell is still in flight, and the reply would list
// the first cell twice and drop the other.
func TestCellResolvesOnce(t *testing.T) {
	co, _ := newTestCoordinator(t, CoordinatorOptions{Workers: []string{"http://127.0.0.1:1"}, HeartbeatInterval: time.Hour})
	result := &sweepapi.Response{Cells: []sweepapi.Cell{{Cycles: 1}}}
	failure := runner.CellFailure{Key: "x", Kind: "error"}
	for _, failFirst := range []bool{true, false} {
		s := &sweepRun{co: co, results: map[string]sweepapi.Cell{}, failures: map[string]runner.CellFailure{}, pending: 2}
		s.cond = sync.NewCond(&s.mu)
		x := &fleetCell{key: "x", hash: "hx"}
		if failFirst {
			s.recordFailure(x, failure)
			s.resolve("http://a", x, result)
		} else {
			s.resolve("http://a", x, result)
			s.recordFailure(x, failure)
		}
		_, asResult := s.results["x"]
		_, asFailure := s.failures["x"]
		if s.pending != 1 || asResult == asFailure {
			t.Errorf("failure first %v: pending %d, as result %v, as failure %v; want pending 1 and exactly one record",
				failFirst, s.pending, asResult, asFailure)
		}
	}
}

// TestAnswerRecordForgetsLostWorkers: turning suspect, on dispatch
// evidence or on missed heartbeats, drops a worker's entries from the
// answer record — it may come back at the same URL without its results —
// and leaves other workers' entries.
func TestAnswerRecordForgetsLostWorkers(t *testing.T) {
	const a, b = "http://127.0.0.1:1", "http://127.0.0.1:2"
	co, _ := newTestCoordinator(t, CoordinatorOptions{Workers: []string{a, b}, HeartbeatInterval: time.Hour, SuspectMisses: 1})
	for _, step := range []struct {
		event string
		lose  func()
	}{
		{"failed a dispatch", func() { co.suspectWorker(a, "dispatch failed") }},
		{"missed a heartbeat", func() { co.applyProbe(a, false, 0) }},
	} {
		co.applyProbe(a, true, 1) // alive again before each step
		co.answers.Put("on-a", a)
		co.answers.Put("on-b", b)
		step.lose()
		if w, ok := co.answers.Get("on-a"); ok {
			t.Errorf("after %s %s, its cell is still recorded for %s", a, step.event, w)
		}
		if w, _ := co.answers.Get("on-b"); w != b {
			t.Errorf("after %s %s, %s's cell is recorded for %q", a, step.event, b, w)
		}
	}
}

// TestFleetFailureTaxonomyMatchesSingleNode: a cell that panics inside the
// simulator is quarantined by the worker, and the fleet's merged failure
// report carries the same record — byte-identical to single-node, failures
// included.
func TestFleetFailureTaxonomyMatchesSingleNode(t *testing.T) {
	panicky := func(ctx context.Context, j runner.Job) system.Result {
		if j.Cfg.Seed == 11 {
			panic("injected: seed 11 is cursed")
		}
		return coordFakeExecute(ctx, j)
	}
	ref, refTS := newFleetWorker(t, server.Options{Execute: panicky})
	_ = ref
	resp, want := postJSON(t, refTS.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference: %d %s", resp.StatusCode, want)
	}
	var wantResp server.SweepResponse
	if err := json.Unmarshal(want, &wantResp); err != nil {
		t.Fatal(err)
	}
	if len(wantResp.Failures) == 0 {
		t.Fatalf("reference run quarantined nothing — stub broken")
	}

	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newFleetWorker(t, server.Options{Execute: panicky})
		urls = append(urls, ts.URL)
	}
	_, cts := newTestCoordinator(t, CoordinatorOptions{Workers: urls})
	resp2, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fleet: %d %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet failure report differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}
}

// TestCoordinatorLossRepost is the coordinator-loss drill in unit form: a
// coordinator is lost mid-sweep (its sweep context ends, then it closes)
// with the seed-11 cells still computing, and the client re-posts the
// sweep to a second, ordinary coordinator over the same roster. That one
// has no state from the first; its ring places every cell as the first
// one's did, so the answer is byte-identical to a single-node run and the
// workers simulate only the three cells that were outstanding, answering
// the rest from their caches.
func TestCoordinatorLossRepost(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	// Seed-11 cells block (until released) so the first coordinator can be
	// lost with work provably outstanding; all other cells finish fast.
	var blocked atomic.Bool
	blocked.Store(true)
	gatedExec := func(ctx context.Context, j runner.Job) system.Result {
		if j.Cfg.Seed == 11 && blocked.Load() {
			<-ctx.Done()
		}
		return coordFakeExecute(ctx, j)
	}
	// Cross-wired peer caches, as cameod -peers wires them: a cell one
	// worker stole and simulated is fetched, not simulated again, when the
	// ring sends it to the other.
	mkNode := func() (*server.Server, *httptest.Server, *PeerTier) {
		dc, err := runner.OpenDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dc.Close() })
		tier := NewPeerTier(dc, nil, time.Second)
		srv, ts := newFleetWorker(t, server.Options{Execute: gatedExec, Disk: dc, Cache: tier})
		return srv, ts, tier
	}
	a, ats, atier := mkNode()
	b, bts, btier := mkNode()
	atier.SetPeers([]string{bts.URL})
	btier.SetPeers([]string{ats.URL})
	workers := []string{ats.URL, bts.URL}
	executed := func() uint64 {
		return counterValue(t, a.Metrics(), "server/cells_executed") +
			counterValue(t, b.Metrics(), "server/cells_executed")
	}

	var req sweepapi.Request
	if err := json.Unmarshal([]byte(fleetSweepBody), &req); err != nil {
		t.Fatal(err)
	}
	lost, err := NewCoordinator(CoordinatorOptions{Workers: workers, LeaseTTL: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancelRun := context.WithTimeout(context.Background(), 900*time.Millisecond)
	defer cancelRun()
	if _, err := lost.Run(runCtx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first coordinator's Run = %v, want deadline exceeded (the simulated loss)", err)
	}
	lost.Close()
	execBefore := executed()
	if execBefore != 9 {
		t.Fatalf("the lost sweep simulated %d cells, want the 9 ungated ones", execBefore)
	}

	blocked.Store(false)
	_, cts := newTestCoordinator(t, CoordinatorOptions{Workers: workers, LeaseTTL: 150 * time.Millisecond})
	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-posted sweep: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-posted sweep differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}
	if delta := executed() - execBefore; delta != 3 {
		t.Errorf("re-posted sweep simulated %d cells, want the 3 outstanding ones (the rest come from the worker caches)", delta)
	}
}

// TestFleetCancellation: a cancelled sweep context surfaces as the context
// error, not a hang or a partial 200.
func TestFleetCancellation(t *testing.T) {
	slowExec := func(ctx context.Context, j runner.Job) system.Result {
		select {
		case <-time.After(5 * time.Second):
		case <-ctx.Done():
		}
		return coordFakeExecute(ctx, j)
	}
	_, w := newFleetWorker(t, server.Options{Execute: slowExec})
	co, err := NewCoordinator(CoordinatorOptions{Workers: []string{w.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var req sweepapi.Request
	if err := json.Unmarshal([]byte(fleetSweepBody), &req); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = co.Run(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run error = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("cancellation took %s — dispatch loops not honoring ctx", time.Since(start))
	}
}

// TestSweepDeadlineSparesHealthyWorker: a worker answers 504 (its copy of
// the sweep's deadline fired) to every dispatch and its retries, and its
// health probe hangs until the sweep's own deadline cuts it short. The
// sweep must end with the deadline error, suspect no worker and record no
// cell failure, and the next sweep must still dispatch to that worker.
func TestSweepDeadlineSparesHealthyWorker(t *testing.T) {
	var dispatches atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(sweepapi.ReadyState{Ready: true, MaxInflight: 1})
	})
	mux.HandleFunc("/sweep", func(w http.ResponseWriter, _ *http.Request) {
		dispatches.Add(1)
		w.WriteHeader(http.StatusGatewayTimeout)
		io.WriteString(w, `{"error":"sweep cancelled: context deadline exceeded"}`)
	})
	mux.HandleFunc("/healthz", func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	worker := httptest.NewServer(mux)
	t.Cleanup(worker.Close)
	co, err := NewCoordinator(CoordinatorOptions{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	req := sweepapi.Request{Org: "cameo", Benchmarks: []string{"milc"}}
	// The deadline leaves room for both retry backoffs (100 ms, then
	// 200 ms), so the probe after the last retry is what it cuts short.
	const perSweep = 1 + dispatchRetries
	for sweep := int64(1); sweep <= 2; sweep++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := co.Run(ctx, req)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("sweep %d: Run error = %v, want deadline exceeded", sweep, err)
		}
		if got := dispatches.Load(); got != sweep*perSweep {
			t.Fatalf("after sweep %d the worker saw %d dispatches, want %d", sweep, got, sweep*perSweep)
		}
	}
	snap := co.Metrics()
	if got := counterOrZero(snap, "fleet/suspects"); got != 0 {
		t.Errorf("suspects = %d, want 0", got)
	}
	if got := counterOrZero(snap, "fleet/cells_failed"); got != 0 {
		t.Errorf("cells_failed = %d, want 0", got)
	}
}

// TestCoordinatorValidation covers constructor and HTTP-facing errors.
func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorOptions{}); err == nil {
		t.Error("no workers accepted")
	}
	if _, err := NewCoordinator(CoordinatorOptions{Workers: []string{"worker-1:9000"}}); err == nil {
		t.Error("schemeless worker URL accepted")
	}
	if _, err := NewCoordinator(CoordinatorOptions{Workers: []string{"http://w:1", "http://w:1/"}}); err == nil {
		t.Error("duplicate worker accepted")
	}

	_, w := newFleetWorker(t, server.Options{})
	_, cts := newTestCoordinator(t, CoordinatorOptions{Workers: []string{w.URL}})

	// Invalid org surfaces as a 400 with the worker's own message shape.
	resp, body := postJSON(t, cts.URL, `{"org":"nope","benchmarks":["milc"]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown organization") {
		t.Errorf("bad org: status %d body %s", resp.StatusCode, body)
	}
	// So does a field the request schema does not have: a misspelled
	// "sede" must not silently run the default seed, and the retired
	// "shards" is gone from the schema.
	for _, field := range []string{"sede", "shards"} {
		resp, body := postJSON(t, cts.URL, `{"org":"cameo","benchmarks":["milc"],"`+field+`":7}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"`+field) {
			t.Errorf("unknown field %q: status %d body %s", field, resp.StatusCode, body)
		}
	}
	// GET /sweep is rejected.
	gresp, err := http.Get(cts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sweep = %d, want 405", gresp.StatusCode)
	}
	// /readyz reports the membership picture as JSON.
	rresp, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready coordReady
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatalf("readyz not JSON: %v", err)
	}
	rresp.Body.Close()
	if !ready.Ready || len(ready.Workers) != 1 {
		t.Errorf("readyz = %+v, want ready with 1 worker", ready)
	}
}
