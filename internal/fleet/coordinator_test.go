package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// TestFleetWorkerLossMidSweep kills a worker (connection-level failures,
// then a failing health probe) partway through a sweep: the coordinator
// must re-shard its cells onto the survivor and still produce the
// single-node bytes.
func TestFleetWorkerLossMidSweep(t *testing.T) {
	want := singleNodeReference(t, fleetSweepBody)

	_, survivor := newFleetWorker(t, server.Options{})

	// The doomed worker serves real sweeps until tripped, then fails
	// everything — including /healthz, so the coordinator declares it dead.
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
		Workers:         []string{survivor.URL, doomed.URL},
		DispatchRetries: 1,
	})
	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-loss response differs from single-node:\nfleet:  %s\nsingle: %s", got, want)
	}
	snap := co.Metrics()
	if got := counterValue(t, snap, "fleet/worker_deaths"); got != 1 {
		t.Errorf("worker_deaths = %d, want 1", got)
	}
	if got := counterValue(t, snap, "fleet/cells_resharded"); got == 0 {
		t.Errorf("cells_resharded = 0, want > 0 (the dead worker owned cells)")
	}
	// The dead worker stays dead for the coordinator's next sweep.
	resp2, got2 := postJSON(t, cts.URL, fleetSweepBody)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(got2, want) {
		t.Fatalf("second sweep after loss: status %d", resp2.StatusCode)
	}
	if got := counterValue(t, co.Metrics(), "fleet/worker_deaths"); got != 1 {
		t.Errorf("worker_deaths after second sweep = %d, want still 1", got)
	}
}

// TestFleetWorkSteal pairs a deliberately slow worker with a fast one: the
// fast worker must drain its own queue and then steal the straggler's
// tail, and the merged bytes still match single-node.
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
	resp, got := postJSON(t, cts.URL, fleetSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stolen-work response differs from single-node")
	}
	if got := counterValue(t, co.Metrics(), "fleet/cells_stolen"); got == 0 {
		t.Errorf("cells_stolen = 0, want > 0 (fast worker should have raided the slow queue)")
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

// TestFleetCheckpoint: a sweep with a quarantined cell leaves a
// cameo-manifest-v1 manifest carrying the fleet extension; a clean sweep
// removes it.
func TestFleetCheckpoint(t *testing.T) {
	dir := t.TempDir()
	panicky := func(ctx context.Context, j runner.Job) system.Result {
		if j.Cfg.Seed == 11 {
			panic("injected: seed 11 is cursed")
		}
		return coordFakeExecute(ctx, j)
	}
	_, w1 := newFleetWorker(t, server.Options{Execute: panicky})
	co, err := NewCoordinator(CoordinatorOptions{Workers: []string{w1.URL}, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var req sweepapi.Request
	if err := json.Unmarshal([]byte(fleetSweepBody), &req); err != nil {
		t.Fatal(err)
	}
	sresp, err := co.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(sresp.Failures) == 0 {
		t.Fatalf("expected a quarantined cell")
	}
	data, err := os.ReadFile(filepath.Join(dir, runner.ManifestName))
	if err != nil {
		t.Fatalf("manifest missing after partial sweep: %v", err)
	}
	var m runner.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != runner.ManifestSchema {
		t.Errorf("manifest schema %q, want %q", m.Schema, runner.ManifestSchema)
	}
	if m.Fleet == nil || len(m.Fleet.Workers) != 1 {
		t.Errorf("manifest fleet section = %+v, want 1 worker", m.Fleet)
	}
	if len(m.Done) == 0 {
		t.Errorf("manifest recorded no completed cells")
	}

	// A clean fleet (no panics) resumed over the same cache dir finishes
	// and removes the manifest.
	_, w2 := newFleetWorker(t, server.Options{})
	co2, err := NewCoordinator(CoordinatorOptions{Workers: []string{w2.URL}, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co2.Run(context.Background(), req); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, runner.ManifestName)); !os.IsNotExist(err) {
		t.Errorf("manifest still present after clean finish: %v", err)
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
// the sweep's deadline fired) and its health probe hangs until the sweep's
// own deadline cuts it short. The sweep must end with the deadline error,
// evict no worker and record no cell failure, and the next sweep must
// still dispatch to that worker.
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
	req := sweepapi.Request{Org: "cameo", Benchmarks: []string{"milc"}}
	for sweep := int64(1); sweep <= 2; sweep++ {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, err := co.Run(ctx, req)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("sweep %d: Run error = %v, want deadline exceeded", sweep, err)
		}
		if got := dispatches.Load(); got != sweep {
			t.Fatalf("after sweep %d the worker saw %d dispatches, want %d", sweep, got, sweep)
		}
	}
	snap := co.Metrics()
	if got := counterOrZero(snap, "fleet/worker_deaths"); got != 0 {
		t.Errorf("worker_deaths = %d, want 0", got)
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
