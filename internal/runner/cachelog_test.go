package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cameo/internal/system"
)

// logHash is a valid cell hash for the i-th synthetic entry.
func logHash(i int) string { return fmt.Sprintf("%064x", i) }

// logResult is the synthetic result stored under logHash(i).
func logResult(i int) system.Result {
	return system.Result{Org: "CAMEO", Benchmark: "log", Cycles: uint64(1000 + i), Demands: uint64(i)}
}

// recordLen is the log footprint of logResult(i).
func recordLen(t *testing.T, i int) int64 {
	t.Helper()
	body, err := EncodeEntry(logResult(i))
	if err != nil {
		t.Fatal(err)
	}
	return int64(recordOverhead + len(body))
}

// wantLoad fails unless hash loads as logResult(i).
func wantLoad(t *testing.T, c *DiskCache, i int) {
	t.Helper()
	got, ok := c.Load(logHash(i))
	if !ok {
		t.Fatalf("entry %d does not load", i)
	}
	if want := logResult(i); got.Cycles != want.Cycles || got.Demands != want.Demands || got.Benchmark != want.Benchmark {
		t.Fatalf("entry %d loads as %+v, want %+v", i, got, want)
	}
}

// TestCacheLogCreatedByFirstStore: opening an empty directory writes no
// log; the first store creates it, and a repeated store of an indexed
// hash appends nothing.
func TestCacheLogCreatedByFirstStore(t *testing.T) {
	dir := t.TempDir()
	c := openTestCache(t, dir)
	if _, err := os.Stat(filepath.Join(dir, logName)); !os.IsNotExist(err) {
		t.Fatalf("open created the log (stat err %v)", err)
	}
	c.Store(logHash(1), logResult(1))
	size := logSize(t, dir)
	if want := recordLen(t, 1); size != want {
		t.Fatalf("log is %d bytes after one store, want %d", size, want)
	}
	c.Store(logHash(1), logResult(1))
	if got := logSize(t, dir); got != size {
		t.Fatalf("re-store of an indexed hash grew the log %d -> %d bytes", size, got)
	}
	if c.Len() != 1 || c.StoreErrorCount() != 0 {
		t.Fatalf("Len = %d, store errors = %d, want 1 and 0", c.Len(), c.StoreErrorCount())
	}
}

// TestCacheLogRejectsMalformedHash: only 64-hex cell hashes are logged.
func TestCacheLogRejectsMalformedHash(t *testing.T) {
	c := openTestCache(t, t.TempDir())
	c.Store("../not-a-hash", logResult(1))
	if c.StoreErrorCount() != 1 || c.Len() != 0 {
		t.Fatalf("store errors = %d, Len = %d, want 1 and 0", c.StoreErrorCount(), c.Len())
	}
}

// TestCacheLogIgnoresPerEntryFiles: a <hash>.json file of the earlier
// one-file-per-entry layout is not read, so such a directory opens as an
// empty cache and leaves the file alone.
func TestCacheLogIgnoresPerEntryFiles(t *testing.T) {
	dir := t.TempDir()
	body, err := EncodeEntry(logResult(1))
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, logHash(1)+".json")
	if err := os.WriteFile(old, body, 0o644); err != nil {
		t.Fatal(err)
	}
	c := openTestCache(t, dir)
	if _, ok := c.Load(logHash(1)); ok || c.Len() != 0 {
		t.Fatalf("per-entry file was read (Len %d)", c.Len())
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("per-entry file disturbed: %v", err)
	}
}

// TestCacheLogTornTail: a record cut short by a crash mid-append is
// quarantined at open, the log is cut back to its whole records, and the
// cache keeps working across further reopens.
func TestCacheLogTornTail(t *testing.T) {
	dir := t.TempDir()
	c := openTestCache(t, dir)
	c.Store(logHash(1), logResult(1))
	c.Close()
	valid := logSize(t, dir)

	body, err := EncodeEntry(logResult(2))
	if err != nil {
		t.Fatal(err)
	}
	rec := appendRecord(nil, logHash(2), body)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c = openTestCache(t, dir)
	wantLoad(t, c, 1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after torn tail, want 1", c.Len())
	}
	if got := logSize(t, dir); got != valid {
		t.Fatalf("log is %d bytes, want it cut back to its valid %d", got, valid)
	}
	if c.CorruptCount() != 1 || len(c.QuarantinedEntries()) != 1 {
		t.Fatalf("torn tail: CorruptCount %d, quarantined %v; want 1 and one file", c.CorruptCount(), c.QuarantinedEntries())
	}
	c.Store(logHash(3), logResult(3))
	c.Close()

	c = openTestCache(t, dir)
	wantLoad(t, c, 1)
	wantLoad(t, c, 3)
	if c.Len() != 2 || c.CorruptCount() != 0 {
		t.Fatalf("second reopen: Len %d, CorruptCount %d; want 2 and 0", c.Len(), c.CorruptCount())
	}
}

// TestCacheLogCRCFailureEndsScan: a record whose checksum fails ends the
// scan. Its bytes and everything after them are quarantined as one corrupt
// entry, and a further reopen finds nothing more to quarantine.
func TestCacheLogCRCFailureEndsScan(t *testing.T) {
	dir := t.TempDir()
	c := openTestCache(t, dir)
	for i := 1; i <= 3; i++ {
		c.Store(logHash(i), logResult(i))
	}
	c.Close()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	first := recordLen(t, 1)
	crcAt := first + recordLen(t, 2) - 1
	data[crcAt] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	c = openTestCache(t, dir)
	wantLoad(t, c, 1)
	for _, i := range []int{2, 3} {
		if _, ok := c.Load(logHash(i)); ok {
			t.Fatalf("entry %d at or after the bad checksum loaded", i)
		}
	}
	if c.Len() != 1 || c.CorruptCount() != 1 {
		t.Fatalf("Len %d, CorruptCount %d; want 1 and 1", c.Len(), c.CorruptCount())
	}
	if got := logSize(t, dir); got != first {
		t.Fatalf("log is %d bytes, want %d", got, first)
	}
	q := c.QuarantinedEntries()
	if len(q) != 1 {
		t.Fatalf("quarantined %v, want one file", q)
	}
	tail, err := os.ReadFile(filepath.Join(dir, QuarantineDir, q[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, data[first:]) {
		t.Fatalf("quarantined %d bytes, want the %d from the bad record on", len(tail), len(data)-int(first))
	}
	c.Close()

	c = openTestCache(t, dir)
	if c.Len() != 1 || c.CorruptCount() != 0 || len(c.QuarantinedEntries()) != 1 {
		t.Fatalf("reopen: Len %d, CorruptCount %d, quarantined %v", c.Len(), c.CorruptCount(), c.QuarantinedEntries())
	}
}

// TestCacheLogQuarantineSurvivesReopen: an entry that fails verification on
// load is tombstoned, so it stays a miss after reopen and is not counted
// again; storing the cell afresh brings it back.
func TestCacheLogQuarantineSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	plantRecord(t, dir, logHash(1), `{"schema":"cameo-cache-entry-v1","sha256":"00","payload":{}}`)
	c := openTestCache(t, dir)
	if _, ok := c.Load(logHash(1)); ok {
		t.Fatal("entry with a bad checksum loaded")
	}
	if c.CorruptCount() != 1 {
		t.Fatalf("CorruptCount = %d, want 1", c.CorruptCount())
	}
	c.Close()

	c = openTestCache(t, dir)
	if c.Len() != 0 {
		t.Fatalf("Len = %d after reopen, want 0 (the entry was tombstoned)", c.Len())
	}
	if _, ok := c.Load(logHash(1)); ok {
		t.Fatal("quarantined entry resurrected by reopen")
	}
	if c.CorruptCount() != 0 {
		t.Fatalf("CorruptCount = %d after reopen, want 0", c.CorruptCount())
	}
	c.Store(logHash(1), logResult(1))
	c.Close()

	c = openTestCache(t, dir)
	wantLoad(t, c, 1)
}

// TestCacheLogConcurrentStoreLoad: eight goroutines store and load
// overlapping hashes; every load equals what was stored, each hash is
// logged once, and a reopen sees the same entries. Run under -race.
func TestCacheLogConcurrentStoreLoad(t *testing.T) {
	const workers, hashes, span = 8, 32, 16
	dir := t.TempDir()
	c := openTestCache(t, dir)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < span; k++ {
				i := (w*hashes/workers + k) % hashes
				c.Store(logHash(i), logResult(i))
				for _, j := range []int{i, (i + 1) % hashes} {
					got, ok := c.Load(logHash(j))
					if j == i && !ok {
						t.Errorf("worker %d: entry %d missing after its store returned", w, i)
					}
					if ok && got.Cycles != logResult(j).Cycles {
						t.Errorf("worker %d: entry %d loads %d cycles", w, j, got.Cycles)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var want int64
	for i := 0; i < hashes; i++ {
		want += recordLen(t, i)
	}
	if got := logSize(t, dir); got != want {
		t.Fatalf("log is %d bytes, want %d (each hash once)", got, want)
	}
	if c.Len() != hashes || c.StoreErrorCount() != 0 || c.CorruptCount() != 0 {
		t.Fatalf("Len %d, store errors %d, corrupt %d", c.Len(), c.StoreErrorCount(), c.CorruptCount())
	}
	c.Close()

	c = openTestCache(t, dir)
	for i := 0; i < hashes; i++ {
		wantLoad(t, c, i)
	}
}
