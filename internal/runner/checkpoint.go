package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ManifestSchema versions the checkpoint-manifest JSON layout.
const ManifestSchema = "cameo-manifest-v1"

// Manifest is the on-disk checkpoint for one sweep: the run identity (a
// hash of the sorted cell hashes, so the same job set always maps to the
// same manifest regardless of flag order or worker count), the cell total,
// and the sorted hashes already completed. A manifest present on disk means
// a sweep with that exact job set was interrupted; a clean finish removes
// it.
type Manifest struct {
	Schema string   `json:"schema"`
	RunID  string   `json:"run_id"`
	Total  int      `json:"total"`
	Done   []string `json:"done"`
}

// uniqueJobHashes returns the sorted, deduplicated cell hashes of a job set.
func uniqueJobHashes(jobs []Job) []string {
	hashes := make([]string, 0, len(jobs))
	seen := map[string]bool{}
	for _, j := range jobs {
		if h := j.Hash(); !seen[h] {
			seen[h] = true
			hashes = append(hashes, h)
		}
	}
	sort.Strings(hashes)
	return hashes
}

// RunID derives the run identity from a job set: the hex SHA-256 of the
// sorted cell hashes. Duplicates collapse, order is irrelevant.
func RunID(jobs []Job) string {
	sum := sha256.New()
	for _, h := range uniqueJobHashes(jobs) {
		sum.Write([]byte(h))
		sum.Write([]byte{'\n'})
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// Checkpoint persists sweep progress so an interrupted run can resume
// without redoing completed cells. It piggybacks on the result cache for
// the results themselves — a completed cell's result is already on disk in
// the DiskCache — so the manifest only needs identity and progress: which
// cells of which run finished. MarkDone flushes after every cell (cells run
// for seconds; one small atomic file write is noise).
type Checkpoint struct {
	mu    sync.Mutex
	dir   string
	runID string
	total int
	done  map[string]bool

	resumed int // cells already done when the checkpoint was opened
}

// ManifestName is the checkpoint file inside a cache directory. One file,
// not one per run ID: a -resume against a manifest left by a *different*
// job set must fail loudly (the run ID mismatch), not silently start over
// because the file name didn't match.
const ManifestName = "manifest.json"

func manifestPath(dir string) string {
	return filepath.Join(dir, ManifestName)
}

// OpenCheckpoint creates (or, with resume, reloads) the checkpoint for this
// job set under dir. With resume true an existing manifest for the same
// run ID is adopted — its done set is carried over — and a manifest for a
// different job set is an error rather than silently mixing two sweeps.
// With resume false any stale manifest for this run ID is overwritten.
func OpenCheckpoint(dir string, jobs []Job, resume bool) (*Checkpoint, error) {
	runID := RunID(jobs)
	cp := &Checkpoint{
		dir:   dir,
		runID: runID,
		total: len(uniqueJobHashes(jobs)),
		done:  map[string]bool{},
	}
	if resume {
		m, err := ReadManifest(dir)
		switch {
		case err == nil:
			if m.RunID != runID {
				return nil, fmt.Errorf("runner: manifest %s belongs to run %.16s, this sweep is run %.16s — the job set changed; drop -resume or use a fresh -cachedir", cp.Path(), m.RunID, runID)
			}
			for _, h := range m.Done {
				cp.done[h] = true
			}
			cp.resumed = len(cp.done)
		case os.IsNotExist(err):
			// Nothing to resume: behave as a fresh run.
		default:
			return nil, err
		}
	}
	if err := cp.flushLocked(); err != nil {
		return nil, err
	}
	return cp, nil
}

// Resumed returns how many cells the manifest already recorded as done when
// the checkpoint was opened (0 for a fresh run).
func (cp *Checkpoint) Resumed() int {
	if cp == nil {
		return 0
	}
	return cp.resumed
}

// RunID returns the sweep's run identity.
func (cp *Checkpoint) RunID() string { return cp.runID }

// Path returns the manifest file location.
func (cp *Checkpoint) Path() string { return manifestPath(cp.dir) }

// MarkDone records one completed cell and flushes the manifest. Nil-safe
// and idempotent.
func (cp *Checkpoint) MarkDone(hash string) {
	if cp == nil {
		return
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.done[hash] {
		return
	}
	cp.done[hash] = true
	cp.flushLocked() // best-effort: a failed flush costs re-runs, not correctness
}

// DoneCount returns how many cells the checkpoint has recorded.
func (cp *Checkpoint) DoneCount() int {
	if cp == nil {
		return 0
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.done)
}

// flushLocked rewrites the manifest with the sorted done set.
func (cp *Checkpoint) flushLocked() error {
	hashes := make([]string, 0, len(cp.done))
	for h := range cp.done {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	return WriteManifest(cp.dir, &Manifest{
		Schema: ManifestSchema,
		RunID:  cp.runID,
		Total:  cp.total,
		Done:   hashes,
	})
}

// ReadManifest loads and validates the manifest under dir: it must decode
// and carry ManifestSchema. Returns os.IsNotExist errors when no manifest
// is present.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("runner: manifest %s is unreadable: %w", manifestPath(dir), err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("runner: manifest %s has schema %q, want %q", manifestPath(dir), m.Schema, ManifestSchema)
	}
	return &m, nil
}

// WriteManifest atomically rewrites the manifest under dir (tmp + rename;
// the manifest is advisory, so no fsync — a torn manifest after a power
// cut merely costs re-computation of cached cells).
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := manifestPath(dir)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("runner: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runner: publishing manifest: %w", err)
	}
	return nil
}

// Finish removes the manifest after a fully successful sweep — an on-disk
// manifest then unambiguously means "interrupted". Call only when every
// cell completed.
func (cp *Checkpoint) Finish() error {
	if cp == nil {
		return nil
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	err := os.Remove(cp.Path())
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}
