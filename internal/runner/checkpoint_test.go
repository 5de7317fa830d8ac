package runner

import (
	"context"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunIDIgnoresOrderAndDuplicates(t *testing.T) {
	jobs := testJobs(3)
	reordered := []Job{jobs[2], jobs[0], jobs[1], jobs[0]}
	if RunID(jobs) != RunID(reordered) {
		t.Fatal("RunID depends on job order or duplicates")
	}
	if RunID(jobs) == RunID(jobs[:2]) {
		t.Fatal("different job sets share a RunID")
	}
}

func TestCheckpointMarkAndResume(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(3)

	cp, err := OpenCheckpoint(dir, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Resumed() != 0 {
		t.Fatalf("fresh checkpoint resumed %d cells", cp.Resumed())
	}
	cp.MarkDone(jobs[0].Hash())
	cp.MarkDone(jobs[1].Hash())
	cp.MarkDone(jobs[1].Hash()) // idempotent
	if cp.DoneCount() != 2 {
		t.Fatalf("DoneCount = %d, want 2", cp.DoneCount())
	}

	// A new process resumes: the done set is recovered from disk.
	cp2, err := OpenCheckpoint(dir, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Resumed() != 2 {
		t.Fatalf("Resumed = %d, want 2", cp2.Resumed())
	}

	// Resuming with a different job set is refused, not silently mixed.
	if _, err := OpenCheckpoint(dir, jobs[:2], true); err == nil {
		t.Fatal("resume with a different job set succeeded")
	} else if !strings.Contains(err.Error(), "job set changed") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}

	// Finish removes the manifest; a later resume starts fresh.
	if err := cp2.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cp2.Path()); !os.IsNotExist(err) {
		t.Fatalf("manifest still present after Finish: %v", err)
	}
	cp3, err := OpenCheckpoint(dir, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	if cp3.Resumed() != 0 {
		t.Fatalf("Resumed after Finish = %d, want 0", cp3.Resumed())
	}
}

// TestRunnerRecordsCheckpoint: every completed cell — executed or loaded
// from cache — lands in the manifest, and nil checkpoints are ignored.
func TestRunnerRecordsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(4)
	cache := openTestCache(t, dir)
	cp, err := OpenCheckpoint(dir, jobs, false)
	if err != nil {
		t.Fatal(err)
	}

	var n atomic.Int64
	r := New(Options{Jobs: 2, Cache: cache, Checkpoint: cp, Execute: countingExecute(&n, 0)})
	if err := r.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if cp.DoneCount() != 4 {
		t.Fatalf("DoneCount = %d, want 4", cp.DoneCount())
	}
	cache.Close()

	// Second invocation resumes: all cells arrive via cache hits and are
	// still marked done in the fresh manifest.
	cache2 := openTestCache(t, dir)
	cp2, err := OpenCheckpoint(dir, jobs, true)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Resumed() != 4 {
		t.Fatalf("Resumed = %d, want 4", cp2.Resumed())
	}
	var n2 atomic.Int64
	r2 := New(Options{Jobs: 2, Cache: cache2, Checkpoint: cp2, Execute: countingExecute(&n2, 0)})
	if err := r2.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if n2.Load() != 0 {
		t.Fatalf("resumed run executed %d cells, want 0", n2.Load())
	}
	if cp2.DoneCount() != 4 {
		t.Fatalf("resumed DoneCount = %d, want 4", cp2.DoneCount())
	}
}

// TestCheckpointSingleNodeManifestUnchanged pins the cameo-manifest-v1
// bytes a checkpoint writes: four keys in order, two-space indent, a
// trailing newline and nothing else, so old and new binaries interoperate
// on the same cachedir.
func TestCheckpointSingleNodeManifestUnchanged(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(2)
	cp, err := OpenCheckpoint(dir, jobs, false)
	if err != nil {
		t.Fatal(err)
	}
	cp.MarkDone(jobs[0].Hash())
	data, err := os.ReadFile(cp.Path())
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n" +
		"  \"schema\": \"cameo-manifest-v1\",\n" +
		"  \"run_id\": \"" + RunID(jobs) + "\",\n" +
		"  \"total\": 2,\n" +
		"  \"done\": [\n" +
		"    \"" + jobs[0].Hash() + "\"\n" +
		"  ]\n" +
		"}\n"
	if string(data) != want {
		t.Errorf("single-node manifest bytes changed:\n%s\nwant:\n%s", data, want)
	}
}

// TestReadWriteManifest: the manifest accessors every checkpoint reads and
// flushes through — atomic write, validated read, and the os.IsNotExist
// contract for the no-manifest case.
func TestReadWriteManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); !os.IsNotExist(err) {
		t.Fatalf("ReadManifest on empty dir = %v, want IsNotExist", err)
	}

	m := &Manifest{
		Schema: ManifestSchema,
		RunID:  strings.Repeat("ab", 32),
		Total:  4,
		Done:   []string{"h1", "h2"},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != m.RunID || got.Total != 4 || len(got.Done) != 2 {
		t.Fatalf("ReadManifest round-trip = %+v, want %+v", got, m)
	}

	// A foreign-schema manifest is refused, not misread.
	if err := WriteManifest(dir, &Manifest{Schema: "someone-elses-v7"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema read = %v, want schema error", err)
	}
}
