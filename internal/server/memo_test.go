package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cameo/internal/runner"
	"cameo/internal/system"
)

// countingCache counts the Loads and Stores that reach a result cache.
// A nil inner cache stores nothing, so every Load misses.
type countingCache struct {
	inner         runner.Cache
	loads, stores atomic.Int64
}

func (c *countingCache) Load(hash string) (system.Result, bool) {
	c.loads.Add(1)
	if c.inner == nil {
		return system.Result{}, false
	}
	return c.inner.Load(hash)
}

func (c *countingCache) Store(hash string, res system.Result) {
	c.stores.Add(1)
	if c.inner != nil {
		c.inner.Store(hash, res)
	}
}

// countingExecute wraps fakeExecute, counting executions.
func countingExecute(n *atomic.Int64) func(context.Context, runner.Job) system.Result {
	return func(ctx context.Context, j runner.Job) system.Result {
		n.Add(1)
		return fakeExecute(ctx, j)
	}
}

func mustPostOK(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, b := postSweep(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, b)
	}
	return b
}

// TestReplyMemoAnswersRepeats: a repeated request is answered from the
// memo without touching the cache tier or executing, its body identical
// to the first answer and to a fresh server's disk-hit answer, and the
// hit is counted as a cell from cache.
func TestReplyMemoAnswersRepeats(t *testing.T) {
	dir := t.TempDir()
	disk, err := runner.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := &countingCache{inner: disk}
	var execs atomic.Int64
	s, ts := newTestServer(t, Options{Disk: disk, Cache: cache, Execute: countingExecute(&execs)})
	const body = `{"org":"cameo","benchmarks":["milc","gcc"],"sweep":"seed","values":[7,3]}`
	first := mustPostOK(t, ts.URL, body)
	loads, stores := cache.loads.Load(), cache.stores.Load()
	if loads != 4 || stores != 4 || execs.Load() != 4 {
		t.Fatalf("first request: %d loads, %d stores, %d executions; want 4 each", loads, stores, execs.Load())
	}
	executed, fromCache := counter(t, s, "server/cells_executed"), counter(t, s, "server/cells_from_cache")

	again := mustPostOK(t, ts.URL, body)
	if !bytes.Equal(first, again) {
		t.Fatalf("memoized reply differs:\n%s\nvs\n%s", first, again)
	}
	if got := cache.loads.Load(); got != loads {
		t.Errorf("repeat made %d cache loads, want 0", got-loads)
	}
	if got := execs.Load(); got != 4 {
		t.Errorf("repeat executed %d cells, want 0", got-4)
	}
	if got := counter(t, s, "server/cells_executed"); got != executed {
		t.Errorf("server/cells_executed moved %d -> %d on a repeat", executed, got)
	}
	if got := counter(t, s, "server/cells_from_cache"); got != fromCache+4 {
		t.Errorf("server/cells_from_cache = %d, want %d", got, fromCache+4)
	}
	// A partial repeat: memoized cells join a fresh one in request order.
	mixed := mustPostOK(t, ts.URL, `{"org":"cameo","benchmarks":["gcc"],"sweep":"seed","values":[5,3]}`)
	if got := cache.loads.Load(); got != loads+1 {
		t.Errorf("partial repeat made %d cache loads, want 1", got-loads)
	}
	var sr SweepResponse
	if err := json.Unmarshal(mixed, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != 2 || sr.Cells[0].Benchmark != "gcc@seed=5" || sr.Cells[1].Benchmark != "gcc@seed=3" ||
		sr.Cells[1].Cycles != 3*1000+300_000 {
		t.Fatalf("partial repeat cells = %+v", sr.Cells)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same directory answers from disk: the
	// memo's reply bytes are the disk-hit path's.
	_, ts2 := newTestServer(t, Options{CacheDir: dir, Execute: func(context.Context, runner.Job) system.Result {
		t.Error("cell re-executed on a warm cache")
		return system.Result{}
	}})
	if fromDisk := mustPostOK(t, ts2.URL, body); !bytes.Equal(first, fromDisk) {
		t.Fatalf("disk-hit reply differs from memoized:\n%s\nvs\n%s", fromDisk, first)
	}
}

// TestReplyMemoOffWithoutCache: a server without a result cache has no
// memo, so every repeat executes again.
func TestReplyMemoOffWithoutCache(t *testing.T) {
	var execs atomic.Int64
	s, ts := newTestServer(t, Options{Execute: countingExecute(&execs)})
	const body = `{"org":"cameo","benchmarks":["milc"]}`
	first := mustPostOK(t, ts.URL, body)
	if again := mustPostOK(t, ts.URL, body); !bytes.Equal(first, again) {
		t.Fatal("repeat reply differs")
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2", got)
	}
	if s.memo != nil {
		t.Fatal("memo built without a result cache")
	}
	if got := counter(t, s, "server/cells_from_cache"); got != 0 {
		t.Fatalf("server/cells_from_cache = %d, want 0", got)
	}
}

// TestReplyMemoSkipsFailedCells: a keep-going failure is not memoized, so
// a repeat sends the failed cell to the runner again while its healthy
// neighbour comes from the memo.
func TestReplyMemoSkipsFailedCells(t *testing.T) {
	var execs, panics atomic.Int64
	cache := &countingCache{}
	_, ts := newTestServer(t, Options{Cache: cache, Execute: func(ctx context.Context, j runner.Job) system.Result {
		if j.Specs[0].Name == "gcc" {
			panics.Add(1)
			panic("injected: gcc is cursed")
		}
		execs.Add(1)
		return fakeExecute(ctx, j)
	}})
	const body = `{"org":"cameo","benchmarks":["milc","gcc"]}`
	for round := int64(1); round <= 2; round++ {
		var sr SweepResponse
		if err := json.Unmarshal(mustPostOK(t, ts.URL, body), &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Cells) != 1 || sr.Cells[0].Benchmark != "milc" || len(sr.Failures) != 1 {
			t.Fatalf("round %d: cells %+v, failures %+v", round, sr.Cells, sr.Failures)
		}
		if got := panics.Load(); got != round {
			t.Fatalf("round %d: failed cell ran %d times, want %d", round, got, round)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("healthy cell executed %d times, want 1", got)
	}
	if got := cache.loads.Load(); got != 3 {
		t.Fatalf("cache loads = %d, want 3 (both cells, then the failed one)", got)
	}
}

// TestReplyMemoSkipsCancelledSweep: a sweep cancelled by its timeout_ms
// memoizes nothing, so the next request reaches the runner again.
func TestReplyMemoSkipsCancelledSweep(t *testing.T) {
	var stall atomic.Bool
	stall.Store(true)
	var execs atomic.Int64
	cache := &countingCache{}
	_, ts := newTestServer(t, Options{Cache: cache, Execute: func(ctx context.Context, j runner.Job) system.Result {
		execs.Add(1)
		if stall.Load() {
			<-ctx.Done()
		}
		return fakeExecute(ctx, j)
	}})
	resp, b := postSweep(t, ts.URL, `{"org":"cameo","benchmarks":["milc"],"timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, b)
	}
	stall.Store(false)
	mustPostOK(t, ts.URL, `{"org":"cameo","benchmarks":["milc"]}`)
	if got := execs.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2", got)
	}
	if got := cache.loads.Load(); got != 2 {
		t.Fatalf("cache loads = %d, want 2", got)
	}
}

// TestReplyMemoBounded: more distinct cells than the bound leave the memo
// at most the bound, and replies stay correct.
func TestReplyMemoBounded(t *testing.T) {
	n := replyMemoBound + 100
	s, ts := newTestServer(t, Options{Cache: &countingCache{}, MaxCells: n})
	values := make([]string, n)
	for i := range values {
		values[i] = fmt.Sprint(i + 1)
	}
	body := `{"org":"cameo","benchmarks":["milc"],"sweep":"seed","values":[` + strings.Join(values, ",") + `]}`
	first := mustPostOK(t, ts.URL, body)
	memoLen := s.memo.Len
	if got := memoLen(); got > replyMemoBound || got == 0 {
		t.Fatalf("memo holds %d cells, want 1..%d", got, replyMemoBound)
	}
	if again := mustPostOK(t, ts.URL, body); !bytes.Equal(first, again) {
		t.Fatal("reply changed once the memo had been dropped")
	}
	if got := memoLen(); got > replyMemoBound {
		t.Fatalf("memo holds %d cells, want at most %d", got, replyMemoBound)
	}
	var sr SweepResponse
	if err := json.Unmarshal(first, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != n {
		t.Fatalf("cells = %d, want %d", len(sr.Cells), n)
	}
	for i, c := range sr.Cells {
		if want := uint64(i+1)*1000 + 300_000; c.Cycles != want || c.Benchmark != fmt.Sprintf("milc@seed=%d", i+1) {
			t.Fatalf("cell %d = %+v, want cycles %d", i, c, want)
		}
	}
}

// TestReplyMemoConcurrentRequests: concurrent requests over overlapping
// cells, memoized or not, all get the reply a fresh server gives.
func TestReplyMemoConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Cache: &countingCache{}, MaxInflight: 2, MaxQueue: 8})
	_, ref := newTestServer(t, Options{})
	bodies := []string{
		`{"org":"cameo","benchmarks":["milc","gcc"],"sweep":"seed","values":[1,2]}`,
		`{"org":"cameo","benchmarks":["gcc"],"sweep":"seed","values":[2,3]}`,
		`{"org":"cameo","benchmarks":["milc"],"sweep":"seed","values":[3,1]}`,
	}
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		want[i] = mustPostOK(t, ref.URL, b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				i := (g + k) % len(bodies)
				resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("request %d: status %d, err %v, body %s", i, resp.StatusCode, err, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
