package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cameo/internal/runner"
	"cameo/internal/sweepapi"
	"cameo/internal/system"
)

// fakeExecute derives a deterministic result from the job without
// simulating — server tests exercise the service machinery, not the model.
func fakeExecute(_ context.Context, j runner.Job) system.Result {
	return system.Result{
		Org:          j.Cfg.Org.String(),
		Benchmark:    j.Specs[0].Name,
		Cycles:       j.Cfg.Seed*1000 + j.Cfg.InstrPerCore,
		Instructions: j.Cfg.InstrPerCore * uint64(j.Cfg.Cores),
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Execute == nil {
		opts.Execute = fakeExecute
	}
	if opts.Jobs == 0 {
		opts.Jobs = 2
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSweep(t *testing.T, url string, body string) (*http.Response, []byte) {
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

func counter(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	sample, ok := s.Metrics().Get(name)
	if !ok {
		t.Fatalf("metric %s missing", name)
	}
	return sample.Value
}

func TestSweepDeterministicAndOrdered(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"org":"cameo","benchmarks":["milc","gcc"],"sweep":"seed","values":[7,3]}`
	var dumps [][]byte
	for i := 0; i < 2; i++ {
		resp, b := postSweep(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, b)
		}
		dumps = append(dumps, b)
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatal("identical requests produced different responses")
	}
	var sr SweepResponse
	if err := json.Unmarshal(dumps[0], &sr); err != nil {
		t.Fatal(err)
	}
	// Cells come back in request order: benchmarks outer, values inner —
	// even though value 7 sorts after 3 and workers race.
	want := []string{"milc@seed=7", "milc@seed=3", "gcc@seed=7", "gcc@seed=3"}
	if len(sr.Cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(sr.Cells), len(want))
	}
	for i, w := range want {
		if sr.Cells[i].Benchmark != w {
			t.Fatalf("cell %d = %q, want %q", i, sr.Cells[i].Benchmark, w)
		}
	}
	if sr.Cells[0].Cycles != 7*1000+300_000 {
		t.Fatalf("cell 0 cycles = %d", sr.Cells[0].Cycles)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxCells: 3})
	for _, tc := range []struct {
		body string
		want string
	}{
		{`{"org":"nope","benchmarks":["milc"]}`, "unknown organization"},
		{`{"org":"cameo","benchmarks":[]}`, "no benchmarks"},
		{`{"org":"cameo","benchmarks":["zork"]}`, "unknown benchmark"},
		{`{"org":"cameo","benchmarks":["milc"],"sweep":"flavor","values":[1]}`, "unknown sweep dimension"},
		{`{"org":"cameo","benchmarks":["milc"],"values":[1]}`, "no sweep dimension"},
		{`{"org":"cameo","benchmarks":["milc","gcc"],"sweep":"seed","values":[1,2]}`, "exceeds the per-request cap"},
		{`not json`, "bad request body"},
	} {
		resp, b := postSweep(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(string(b), tc.want) {
			t.Errorf("body %q: error %q does not mention %q", tc.body, b, tc.want)
		}
	}
}

// TestAdmissionControlSheds: with one slot and no queue, a second
// concurrent sweep is shed with 429 + Retry-After instead of waiting.
func TestAdmissionControlSheds(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		MaxInflight: 1,
		MaxQueue:    0,
		Execute: func(ctx context.Context, j runner.Job) system.Result {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return system.Result{Benchmark: j.Specs[0].Name}
		},
	})
	body := `{"org":"baseline","benchmarks":["milc"]}`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postSweep(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first sweep status = %d, want 200", resp.StatusCode)
		}
	}()
	<-started // the only slot is now held

	resp, b := postSweep(t, ts.URL, `{"org":"baseline","benchmarks":["gcc"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second sweep status = %d (%s), want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	wg.Wait()
	if got := counter(t, s, "server/shed"); got != 1 {
		t.Fatalf("server/shed = %d, want 1", got)
	}
}

// TestRequestDeadlineCancelsSweep: timeout_ms must reach the executing
// cell's context and the request must answer 504, not hang.
func TestRequestDeadlineCancelsSweep(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Execute: func(ctx context.Context, j runner.Job) system.Result {
			<-ctx.Done() // honour cancellation, never finish on our own
			return system.Result{}
		},
	})
	start := time.Now()
	resp, b := postSweep(t, ts.URL, `{"org":"cameo","benchmarks":["milc"],"timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, b)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to propagate", elapsed)
	}
	if got := counter(t, s, "server/cancelled"); got == 0 {
		t.Fatal("server/cancelled not incremented")
	}
}

// TestDeadlinePropagatesIntoRealSimulation drives an actual long event loop
// through the HTTP layer: the request deadline must preempt it.
func TestDeadlinePropagatesIntoRealSimulation(t *testing.T) {
	s, err := New(Options{Jobs: 1}) // no Execute hook: real event loops
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"org":"baseline","benchmarks":["milc"],"instr":50000000,"cores":4,"timeout_ms":40}`
	start := time.Now()
	resp, b := postSweep(t, ts.URL, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, b)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("preemption took %v; engine cancellation points did not fire", elapsed)
	}
}

// TestPanicRecoveryMiddleware: a panicking handler answers 500, is counted,
// and the server keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.protect(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sweep", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler exploded") {
		t.Fatalf("body %q does not carry the panic", rec.Body.String())
	}
	if got := counter(t, s, "server/panics"); got != 1 {
		t.Fatalf("server/panics = %d, want 1", got)
	}
}

// TestDrainStopsAdmissionAndCancelsStragglers: during drain readyz and
// /sweep answer 503; a sweep that outlives the grace is force-cancelled
// (cooperatively — Execute sees ctx die) and Drain returns.
func TestDrainStopsAdmissionAndCancelsStragglers(t *testing.T) {
	started := make(chan struct{})
	s, ts := newTestServer(t, Options{
		DrainGrace: 50 * time.Millisecond,
		Execute: func(ctx context.Context, j runner.Job) system.Result {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done() // would run forever without the force-cancel
			return system.Result{}
		},
	})
	sweepDone := make(chan *http.Response, 1)
	go func() {
		resp, _ := postSweep(t, ts.URL, `{"org":"cameo","benchmarks":["milc"]}`)
		sweepDone <- resp
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain() }()

	// Admission must close promptly even though a sweep is still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, b := postSweep(t, ts.URL, `{"org":"cameo","benchmarks":["gcc"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain: status = %d (%s), want 503", resp.StatusCode, b)
	}

	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung: straggler was not force-cancelled")
	}
	if resp := <-sweepDone; resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("in-flight sweep status = %d, want 503 (cancelled by drain)", resp.StatusCode)
	}
	// Healthz stays alive through and after the drain.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d after drain, want 200", hz.StatusCode)
	}
}

// TestDrainFlushesCache: cells completed before SIGTERM survive in the disk
// cache a fresh server can read.
func TestDrainFlushesCache(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Options{CacheDir: dir})
	resp, b := postSweep(t, ts1.URL, `{"org":"cameo","benchmarks":["milc"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, b)
	}
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// A new server over the same directory serves the cell from cache: with
	// an Execute hook that fails the test if invoked, only a cache hit can
	// answer 200 with the same body.
	s2, err := New(Options{CacheDir: dir, Execute: func(context.Context, runner.Job) system.Result {
		t.Error("cell re-executed: cache was not flushed")
		return system.Result{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, b2 := postSweep(t, ts2.URL, `{"org":"cameo","benchmarks":["milc"]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached replay status = %d (%s)", resp2.StatusCode, b2)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("cache replay differs:\n%s\nvs\n%s", b, b2)
	}
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint: /metrics is valid JSON carrying the server scope.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if resp, _ := postSweep(t, ts.URL, `{"org":"cameo","benchmarks":["milc"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var samples []map[string]any
	if err := json.Unmarshal(b, &samples); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, b)
	}
	found := false
	for _, s := range samples {
		if s["name"] == "server/requests" {
			found = true
		}
	}
	if !found {
		t.Fatalf("server/requests missing from metrics:\n%s", b)
	}
}

// TestQueueAdmitsUpToLimit: MaxQueue requests wait and then complete; only
// the overflow is shed.
func TestQueueAdmitsUpToLimit(t *testing.T) {
	release := make(chan struct{})
	var inflight sync.WaitGroup
	s, ts := newTestServer(t, Options{
		MaxInflight: 1,
		MaxQueue:    2,
		Execute: func(ctx context.Context, j runner.Job) system.Result {
			<-release
			return system.Result{Benchmark: j.Specs[0].Name}
		},
	})
	codes := make(chan int, 5)
	for i := 0; i < 5; i++ {
		inflight.Add(1)
		go func(i int) {
			defer inflight.Done()
			resp, _ := postSweep(t, ts.URL,
				fmt.Sprintf(`{"org":"baseline","benchmarks":["milc"],"seed":%d}`, i+1))
			codes <- resp.StatusCode
		}(i)
	}
	// Wait until 3 are admitted-or-queued and the rest are shed.
	deadline := time.Now().Add(5 * time.Second)
	for counter(t, s, "server/shed") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("shed = %d, want 2", counter(t, s, "server/shed"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	inflight.Wait()
	close(codes)
	var ok200, shed429 int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
		}
	}
	if ok200 != 3 || shed429 != 2 {
		t.Fatalf("200s = %d, 429s = %d; want 3 and 2", ok200, shed429)
	}
}

// TestReadyzBody: /readyz answers a structured JSON body — the admission
// picture a fleet coordinator sizes its dispatch slots from — both while
// serving (200) and while draining (503).
func TestReadyzBody(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInflight: 3, MaxQueue: 5})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var st sweepapi.ReadyState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("readyz body not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	want := sweepapi.ReadyState{Ready: true, MaxInflight: 3, MaxQueue: 5}
	if st != want {
		t.Fatalf("ReadyState = %+v, want %+v", st, want)
	}
	if st.FreeSlots() != 3 {
		t.Fatalf("FreeSlots = %d, want 3", st.FreeSlots())
	}

	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var drained sweepapi.ReadyState
	if err := json.NewDecoder(resp.Body).Decode(&drained); err != nil {
		t.Fatalf("draining readyz body not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if drained.Ready || !drained.Draining {
		t.Fatalf("draining ReadyState = %+v", drained)
	}
}

// TestCachePeerEndpoints exercises the fleet cache-peer protocol served at
// /cache/<hash>: round-trip GET/PUT of the checksummed envelope, 404 for
// absent entries, 400 for malformed hashes and corrupt envelopes, with the
// peer counters moving accordingly.
func TestCachePeerEndpoints(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{CacheDir: dir})

	// Populate one entry via a real sweep.
	resp, b := postSweep(t, ts.URL, `{"org":"cameo","benchmarks":["milc"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed sweep: %d %s", resp.StatusCode, b)
	}
	// Its hash is the cell identity the request expands to.
	grid, err := sweepapi.BuildGrid(sweepapi.Request{Org: "cameo", Benchmarks: []string{"milc"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hash := grid.Jobs[0].Hash()
	if counter(t, s, "runner/cache/stores") != 1 {
		t.Fatalf("no cache entry on disk after sweep: stores = %d", counter(t, s, "runner/cache/stores"))
	}

	// GET round-trips the envelope.
	gresp, err := http.Get(ts.URL + "/cache/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	envelope, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK || len(envelope) == 0 {
		t.Fatalf("GET /cache/%s = %d (%d bytes)", hash, gresp.StatusCode, len(envelope))
	}
	if counter(t, s, "server/peer_cache_gets") != 1 {
		t.Fatalf("peer_cache_gets = %d, want 1", counter(t, s, "server/peer_cache_gets"))
	}

	// Absent entry: clean 404, counted as a miss.
	missHash := strings.Repeat("0", 64)
	gresp, err = http.Get(ts.URL + "/cache/" + missHash)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET absent = %d, want 404", gresp.StatusCode)
	}
	if counter(t, s, "server/peer_cache_get_misses") != 1 {
		t.Fatalf("peer_cache_get_misses = %d, want 1", counter(t, s, "server/peer_cache_get_misses"))
	}

	// Malformed hashes (wrong length, uppercase) are rejected before
	// touching the cache; path traversal gets cleaned away by the mux
	// (404) before the handler even runs — never a file read.
	for bad, want := range map[string]int{
		"abc":                      http.StatusBadRequest,
		strings.Repeat("A", 64):    http.StatusBadRequest,
		"%2e%2e/%2e%2e/etc/passwd": http.StatusBadRequest,
		"../../etc/passwd":         http.StatusNotFound,
	} {
		gresp, err := http.Get(ts.URL + "/cache/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		gresp.Body.Close()
		if gresp.StatusCode != want {
			t.Fatalf("GET /cache/%s = %d, want %d", bad, gresp.StatusCode, want)
		}
	}

	// PUT of the valid envelope into a second server persists it.
	dir2 := t.TempDir()
	s2, ts2 := newTestServer(t, Options{CacheDir: dir2})
	preq, err := http.NewRequest(http.MethodPut, ts2.URL+"/cache/"+hash, bytes.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT valid envelope = %d, want 204", presp.StatusCode)
	}
	if counter(t, s2, "server/peer_cache_puts") != 1 {
		t.Fatalf("peer_cache_puts = %d, want 1", counter(t, s2, "server/peer_cache_puts"))
	}
	gresp, err = http.Get(ts2.URL + "/cache/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT = %d, want 200", gresp.StatusCode)
	}

	// A corrupt envelope is rejected by the checksum check and never
	// touches disk.
	corrupt := make([]byte, len(envelope))
	copy(corrupt, envelope)
	corrupt[len(corrupt)-5] ^= 0x10
	preq, err = http.NewRequest(http.MethodPut, ts2.URL+"/cache/"+hash, bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	presp, err = http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "entry rejected") {
		t.Fatalf("PUT corrupt envelope = %d %s, want 400 entry rejected", presp.StatusCode, body)
	}
	if counter(t, s2, "server/peer_cache_put_rejects") != 1 {
		t.Fatalf("peer_cache_put_rejects = %d, want 1", counter(t, s2, "server/peer_cache_put_rejects"))
	}
}

// warmRecorder is a runner.Cache that implements the Warmer capability
// and records what /cache/warm asked it to prefetch.
type warmRecorder struct {
	mu     sync.Mutex
	peers  []string
	hashes []string
}

func (w *warmRecorder) Load(string) (system.Result, bool) { return system.Result{}, false }
func (w *warmRecorder) Store(string, system.Result)       {}
func (w *warmRecorder) Warm(peers, hashes []string) (int, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peers = append([]string(nil), peers...)
	w.hashes = append([]string(nil), hashes...)
	return len(hashes) - 1, 1 // pretend the last hash was nowhere to be found
}

// TestCacheWarmEndpoint: POST /cache/warm forwards the order to the
// cache tier's Warm, answers the hit/miss split as JSON, and counts both
// in the server's peer_warm_prefetch metrics.
func TestCacheWarmEndpoint(t *testing.T) {
	rec := &warmRecorder{}
	s, ts := newTestServer(t, Options{Cache: rec})

	const h1 = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	const h2 = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
	body := fmt.Sprintf(`{"hashes":["%s","%s"],"peers":["http://peer:1"]}`, h1, h2)
	resp, err := http.Post(ts.URL+"/cache/warm", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var wr sweepapi.WarmResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || wr.Hits != 1 || wr.Misses != 1 {
		t.Fatalf("warm = %d %+v, want 200 with 1 hit / 1 miss", resp.StatusCode, wr)
	}
	rec.mu.Lock()
	if len(rec.hashes) != 2 || rec.hashes[0] != h1 || len(rec.peers) != 1 {
		t.Errorf("Warm received (%v, %v), want the posted order", rec.peers, rec.hashes)
	}
	rec.mu.Unlock()
	snap := s.Metrics()
	if got, _ := snap.Get("server/peer_warm_prefetch_hits"); got.Value != 1 {
		t.Errorf("peer_warm_prefetch_hits = %d, want 1", got.Value)
	}
	if got, _ := snap.Get("server/peer_warm_prefetch_misses"); got.Value != 1 {
		t.Errorf("peer_warm_prefetch_misses = %d, want 1", got.Value)
	}

	// Malformed hashes are rejected before reaching the tier.
	resp2, err := http.Post(ts.URL+"/cache/warm", "application/json",
		strings.NewReader(`{"hashes":["../../etc/passwd"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed hash = %d, want 400", resp2.StatusCode)
	}

	// GET is not part of the protocol.
	resp3, err := http.Get(ts.URL + "/cache/warm")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /cache/warm = %d, want 405", resp3.StatusCode)
	}
}

// TestCacheWarmWithoutTier: a worker running on a plain disk cache (no
// peer tier) answers 501 — warm is an optional capability, not an error.
func TestCacheWarmWithoutTier(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/cache/warm", "application/json",
		strings.NewReader(`{"hashes":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("warm without a tier = %d, want 501", resp.StatusCode)
	}
}

// stubExchanger implements the GossipExchanger hook: it records the request
// and answers a canned view.
type stubExchanger struct {
	mu   sync.Mutex
	last sweepapi.GossipRequest
}

func (g *stubExchanger) Exchange(req sweepapi.GossipRequest) sweepapi.GossipResponse {
	g.mu.Lock()
	g.last = req
	g.mu.Unlock()
	return sweepapi.GossipResponse{View: []sweepapi.PeerInfo{
		{URL: "http://answered", State: "alive", Incarnation: 4},
	}}
}

// TestGossipEndpoint: POST /fleet/gossip routes the body to the configured
// exchanger and returns its merged view.
func TestGossipEndpoint(t *testing.T) {
	g := &stubExchanger{}
	_, ts := newTestServer(t, Options{Gossip: g})

	body := `{"from":"http://sender","view":[{"url":"http://rumor","state":"suspect","incarnation":2}]}`
	resp, err := http.Post(ts.URL+"/fleet/gossip", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gossip = %d, want 200", resp.StatusCode)
	}
	var out sweepapi.GossipResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.View) != 1 || out.View[0].URL != "http://answered" || out.View[0].Incarnation != 4 {
		t.Fatalf("gossip answer = %+v, want the exchanger's view", out)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.last.From != "http://sender" || len(g.last.View) != 1 || g.last.View[0].State != "suspect" {
		t.Fatalf("exchanger saw %+v, want the posted request", g.last)
	}
}

// TestGossipEndpointWithoutGossiper: no gossiper configured answers 501 —
// the same optional-capability convention as /cache/warm without a tier —
// and malformed bodies or wrong methods are rejected before the exchanger.
func TestGossipEndpointWithoutGossiper(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/fleet/gossip", "application/json", strings.NewReader(`{"from":"x","view":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("gossip without a gossiper = %d, want 501", resp.StatusCode)
	}

	_, ts2 := newTestServer(t, Options{Gossip: &stubExchanger{}})
	gresp, err := http.Get(ts2.URL + "/fleet/gossip")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /fleet/gossip = %d, want 405", gresp.StatusCode)
	}
	bresp, err := http.Post(ts2.URL+"/fleet/gossip", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed gossip body = %d, want 400", bresp.StatusCode)
	}
}
