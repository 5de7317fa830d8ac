package runner

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"cameo/internal/system"
	"cameo/internal/workload"
)

// fuzzEnvelope simulates one fast-point CAMEO cell of the named benchmark
// and returns its hash and its cameo-cache-entry-v1 envelope.
func fuzzEnvelope(f *testing.F, bench string) (string, []byte) {
	f.Helper()
	spec, _ := workload.SpecByName(bench)
	job := NewJob(spec, system.Config{Org: system.CAMEO, ScaleDiv: 4096, Cores: 4, InstrPerCore: 40_000})
	res, err := job.TryRun(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	env, err := EncodeEntry(res)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := DecodeEntry(env); err != nil {
		f.Fatalf("a fresh envelope is rejected: %v", err)
	}
	return job.Hash(), env
}

// FuzzDecodeEntry feeds arbitrary bytes to DecodeEntry, the one check on
// cache envelopes read from disk, received in PUT /cache/<hash> or fetched
// from a peer. It must reject or accept them without panicking, and a
// result it accepts must come back deep-equal through EncodeEntry.
func FuzzDecodeEntry(f *testing.F) {
	_, valid := fuzzEnvelope(f, "milc")
	res, err := DecodeEntry(valid)
	if err != nil {
		f.Fatal(err)
	}
	bare, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	at := bytes.Index(flipped, []byte(`"Cycles":`))
	if at < 0 {
		f.Fatal("no Cycles field in the payload")
	}
	flipped[at+len(`"Cycles":`)] ^= 0x01 // a digit stays a digit
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Add(bytes.Replace(valid, []byte(entrySchema), []byte("cameo-cache-entry-v0"), 1))
	f.Add([]byte(`{}`))
	f.Add(bare)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeEntry(data)
		if err != nil {
			return
		}
		enc, err := EncodeEntry(got)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		again, err := DecodeEntry(enc)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the result:\n%+v\nvs\n%+v", got, again)
		}
	})
}

// FuzzCacheLog feeds arbitrary bytes to OpenDiskCache as a directory's
// entry log. Opening must not panic; every entry it indexes must either
// load a result that round-trips through EncodeEntry or be quarantined;
// and a second open must index exactly the entries the first one kept,
// with nothing left to quarantine.
func FuzzCacheLog(f *testing.F) {
	hashA, envA := fuzzEnvelope(f, "milc")
	hashB, envB := fuzzEnvelope(f, "sphinx3")
	two := appendRecord(appendRecord(nil, hashA, envA), hashB, envB)
	torn := two[:len(two)-len(envB)/2]
	badCRC := bytes.Clone(two)
	badCRC[len(badCRC)-1] ^= 0x01
	tombstone := appendRecord(bytes.Clone(two), hashA, nil)
	huge := bytes.Clone(two)
	binary.LittleEndian.PutUint32(huge[recordOverhead+len(envA)+hashLen:], 0xfffffff0)
	for _, seed := range [][]byte{two, torn, badCRC, tombstone, huge} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c.SetWarnWriter(io.Discard)
		for _, h := range indexedHashes(c) {
			quarantined := c.CorruptCount()
			res, ok := c.Load(h)
			if !ok {
				if c.CorruptCount() != quarantined+1 {
					t.Fatalf("indexed entry %.12s neither loaded nor was quarantined", h)
				}
				continue
			}
			enc, err := EncodeEntry(res)
			if err != nil {
				t.Fatalf("loaded entry %.12s does not re-encode: %v", h, err)
			}
			again, err := DecodeEntry(enc)
			if err != nil || !reflect.DeepEqual(res, again) {
				t.Fatalf("loaded entry %.12s does not round-trip (%v)", h, err)
			}
		}
		kept := indexedHashes(c)
		c.Close()

		c, err = OpenDiskCache(dir)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer c.Close()
		if got := indexedHashes(c); !slices.Equal(got, kept) {
			t.Fatalf("second open indexes %d entries, the first kept %d", len(got), len(kept))
		}
		if n := c.CorruptCount(); n != 0 {
			t.Fatalf("second open quarantined %d more", n)
		}
	})
}

// indexedHashes lists a cache's indexed cell hashes, sorted.
func indexedHashes(c *DiskCache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	hashes := make([]string, 0, len(c.index))
	for h := range c.index {
		hashes = append(hashes, h)
	}
	slices.Sort(hashes)
	return hashes
}

// FuzzReadManifest feeds arbitrary bytes to ReadManifest as a directory's
// manifest.json. It must reject or accept them without panicking, and a
// manifest it accepts must come back unchanged through WriteManifest and a
// second ReadManifest.
func FuzzReadManifest(f *testing.F) {
	jobs := testJobs(4)
	real := &Manifest{
		Schema: ManifestSchema,
		RunID:  RunID(jobs),
		Total:  len(jobs),
		Done:   []string{jobs[0].Hash(), jobs[2].Hash()},
		Fleet: &FleetState{
			Workers:     []string{"http://127.0.0.1:7071", "http://127.0.0.1:7072", "http://127.0.0.1:7073"},
			Dead:        []string{"http://127.0.0.1:7073"},
			Assignments: map[string][]string{"http://127.0.0.1:7071": {jobs[1].Hash()}, "http://127.0.0.1:7072": {jobs[3].Hash()}},
			Events: []FleetEvent{
				{Seq: 1, Kind: "join", Worker: "http://127.0.0.1:7071"},
				{Seq: 2, Kind: "join", Worker: "http://127.0.0.1:7072"},
				{Seq: 3, Kind: "join", Worker: "http://127.0.0.1:7073"},
				{Seq: 4, Kind: "leave", Worker: "http://127.0.0.1:7073"},
			},
			Epoch:  3,
			Leases: []CellLease{{Hash: jobs[1].Hash(), Worker: "http://127.0.0.1:7071", ExpiresUnixMS: 1_760_000_000_000}},
		},
	}
	dir := f.TempDir()
	if err := WriteManifest(dir, real); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(bytes.Replace(data, []byte(ManifestSchema), []byte("cameo-manifest-v0"), 1))
	f.Add([]byte(`{}`))

	// Inputs run one at a time per fuzzing process, so they can share a
	// directory: each overwrites the manifest the last one left.
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		if err := WriteManifest(dir, m); err != nil {
			t.Fatalf("accepted manifest does not write: %v", err)
		}
		again, err := ReadManifest(dir)
		if err != nil {
			t.Fatalf("rewritten manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(omitEmpty(m), omitEmpty(again)) {
			t.Fatalf("round trip changed the manifest:\n%+v\nvs\n%+v", m, again)
		}
	})
}

// omitEmpty clears the optional fleet collections that are empty: JSON
// omits them, so an empty one reads back as nil.
func omitEmpty(m *Manifest) *Manifest {
	if m.Fleet == nil {
		return m
	}
	fs := *m.Fleet
	if len(fs.Dead) == 0 {
		fs.Dead = nil
	}
	if len(fs.Assignments) == 0 {
		fs.Assignments = nil
	}
	if len(fs.Events) == 0 {
		fs.Events = nil
	}
	if len(fs.Leases) == 0 {
		fs.Leases = nil
	}
	out := *m
	out.Fleet = &fs
	return &out
}
