package runner

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cameo/internal/faultinject"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// openTestCache opens a quiet DiskCache that is closed with the test.
func openTestCache(t *testing.T, dir string) *DiskCache {
	t.Helper()
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWarnWriter(io.Discard)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c := openTestCache(t, t.TempDir())
	job := testJobs(1)[0]
	if _, ok := c.Load(job.Hash()); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := system.Result{Org: "CAMEO", Benchmark: "sphinx3", Cycles: 12345, Demands: 67}
	c.Store(job.Hash(), want)
	got, ok := c.Load(job.Hash())
	if !ok {
		t.Fatal("stored entry missing")
	}
	if got.Org != want.Org || got.Cycles != want.Cycles || got.Demands != want.Demands {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache Len = %d, want 1", c.Len())
	}
	if n := c.CorruptCount(); n != 0 {
		t.Fatalf("clean round trip quarantined %d entries", n)
	}
}

// TestDiskCacheCorruptEntryQuarantined: entries that fail verification —
// invalid JSON, a legacy pre-envelope entry, or a bit flip inside a valid
// envelope — are quarantined and counted, then recomputed as misses.
func TestDiskCacheCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(3)

	// Entry 0: not JSON at all. Entry 1: valid JSON but the legacy bare
	// format (no envelope). Entry 2: valid envelope with a damaged payload.
	// Each is planted as a well-formed log record, so only verify-on-read
	// can catch it.
	data, err := EncodeEntry(system.Result{Org: "CAMEO", Cycles: 7})
	if err != nil {
		t.Fatal(err)
	}
	damaged := strings.Replace(string(data), `"Org":"CAMEO"`, `"Org":"CAMEX"`, 1)
	if damaged == string(data) {
		t.Fatal("test setup: payload substring not found")
	}
	plantRecord(t, dir, jobs[0].Hash(), "{not json")
	plantRecord(t, dir, jobs[1].Hash(), `{"Org":"CAMEO","Cycles":42}`)
	plantRecord(t, dir, jobs[2].Hash(), damaged)
	c := openTestCache(t, dir)

	for i, j := range jobs {
		if _, ok := c.Load(j.Hash()); ok {
			t.Fatalf("corrupt entry %d reported as hit", i)
		}
	}
	if n := c.CorruptCount(); n != 3 {
		t.Fatalf("CorruptCount = %d, want 3", n)
	}
	if q := c.QuarantinedEntries(); len(q) != 3 {
		t.Fatalf("quarantined %d files, want 3: %v", len(q), q)
	}
	// The corrupt entries left the index: a re-load is a plain miss, not a
	// second quarantine.
	if _, ok := c.Load(jobs[0].Hash()); ok {
		t.Fatal("quarantined entry resurrected")
	}
	if n := c.CorruptCount(); n != 3 {
		t.Fatalf("CorruptCount after re-load = %d, want 3", n)
	}
	if s, ok := c.Metrics().Get("runner/cache/corrupt_quarantined"); !ok || s.Value != 3 {
		t.Fatalf("corrupt_quarantined metric = %+v", s)
	}
}

// TestDiskCacheStoreWriteFailure: an injected write failure degrades to the
// store_errors counter, leaves no entry and the log at its old length, and
// the next store succeeds.
func TestDiskCacheStoreWriteFailure(t *testing.T) {
	c := openTestCache(t, t.TempDir())
	job := testJobs(1)[0]
	c.SetFaults(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteCacheStore, Kind: faultinject.WriteFail, Prob: 1, Limit: 1,
	}))
	lenBefore, sizeBefore := c.Len(), logSize(t, c.Dir())
	c.Store(job.Hash(), system.Result{Cycles: 1})
	if n := c.StoreErrorCount(); n != 1 {
		t.Fatalf("StoreErrorCount = %d, want 1", n)
	}
	if _, ok := c.Load(job.Hash()); ok {
		t.Fatal("failed store produced a readable entry")
	}
	if n, size := c.Len(), logSize(t, c.Dir()); n != lenBefore || size != sizeBefore {
		t.Fatalf("failed store left Len %d and a %d-byte log, want %d and %d", n, size, lenBefore, sizeBefore)
	}
	// Limit=1 consumed the fault: the next store goes through.
	c.Store(job.Hash(), system.Result{Cycles: 2})
	if res, ok := c.Load(job.Hash()); !ok || res.Cycles != 2 {
		t.Fatalf("store after failure: ok=%v res=%+v", ok, res)
	}
}

// TestDiskCacheLockExcludesConcurrentOpen: a second open of a live cache
// directory fails; releasing the lock makes it available again.
func TestDiskCacheLockExcludesConcurrentOpen(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskCache(dir); err == nil {
		t.Fatal("second OpenDiskCache on a locked dir succeeded")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatalf("open after Close failed: %v", err)
	}
	c2.Close()
}

// TestPersistentCacheSkipsExecution is the repeat-invocation scenario: a
// second runner reopening the cache directory executes nothing.
func TestPersistentCacheSkipsExecution(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(6)

	var first atomic.Int64
	c1 := openTestCache(t, dir)
	r1 := New(Options{Jobs: 3, Cache: c1, Execute: countingExecute(&first, 0)})
	if err := r1.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if first.Load() != 6 {
		t.Fatalf("first invocation executed %d cells, want 6", first.Load())
	}
	c1.Close() // release the dir lock for the second invocation

	var second atomic.Int64
	c2 := openTestCache(t, dir)
	r2 := New(Options{Jobs: 3, Cache: c2, Execute: countingExecute(&second, 0)})
	if err := r2.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if second.Load() != 0 {
		t.Fatalf("second invocation executed %d cells, want 0 (cache hits)", second.Load())
	}
	// The merged grids agree.
	a, b := r1.Results(), r2.Results()
	if len(a) != len(b) {
		t.Fatalf("grid sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cycles != b[i].Cycles {
			t.Fatalf("grid cell %d differs: %d vs %d cycles", i, a[i].Cycles, b[i].Cycles)
		}
	}
}

// TestCacheSchemaInHash: hashes depend on the schema version constant, so
// bumping it orphans (rather than misreads) old entries.
func TestCacheHashStable(t *testing.T) {
	j := testJobs(1)[0]
	if j.Hash() != j.Hash() {
		t.Fatal("hash not stable")
	}
	spec, _ := workload.SpecByName("mcf")
	other := NewJob(spec, j.Cfg)
	if j.Hash() == other.Hash() {
		t.Fatal("different specs share a hash")
	}
}

// plantRecord appends a well-formed log record to dir's entry log by hand,
// as a store would have written it, for a cache opened afterwards to index.
func plantRecord(t *testing.T, dir, hash, body string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendRecord(nil, hash, []byte(body))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// logSize returns the length of dir's entry log (0 when there is none).
func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestQuarantineIgnoredByLen: quarantined entries do not count as entries.
func TestQuarantineIgnoredByLen(t *testing.T) {
	dir := t.TempDir()
	job := testJobs(1)[0]
	plantRecord(t, dir, job.Hash(), "junk")
	c := openTestCache(t, dir)
	c.Load(job.Hash()) // quarantines
	if n := c.Len(); n != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", n)
	}
	if err := os.MkdirAll(filepath.Join(c.Dir(), QuarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
}
