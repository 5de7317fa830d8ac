package runner

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"cameo/internal/faultinject"
	"cameo/internal/metrics"
	"cameo/internal/system"
)

// Cache persists cell results across process invocations. Implementations
// must be safe for concurrent use. Keys are Job.Hash values (already
// schema-versioned), so a Cache never needs its own invalidation logic.
type Cache interface {
	// Load returns the stored result for hash, if present and readable.
	Load(hash string) (system.Result, bool)
	// Store saves the result for hash. Failures are best-effort: a cache
	// that cannot write degrades to recomputation, never to an error.
	Store(hash string, res system.Result)
}

// entrySchema versions the on-disk entry envelope. v1: checksummed JSON
// envelope {schema, sha256, payload}. Entries without it (including the
// pre-envelope bare-Result format) are treated as corrupt and quarantined.
const entrySchema = "cameo-cache-entry-v1"

// cacheEntry is the on-disk envelope: the payload is the marshalled
// system.Result, SHA256 is the hex digest of exactly those payload bytes,
// and Schema pins the envelope layout. A partial write, a flipped bit, or a
// foreign file all fail verification instead of silently feeding a wrong
// result back into a sweep.
type cacheEntry struct {
	Schema  string          `json:"schema"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// QuarantineDir is the subdirectory of a cache directory that corrupt
// entries are copied into (preserved for post-mortem, never re-read).
const QuarantineDir = "quarantine"

// logName is the append-only entry log inside a cache directory.
const logName = "entries.log"

// A log record is
//
//	hash    64 bytes: the lowercase hex cell hash
//	length  uint32, little-endian: the body length
//	body    a cameo-cache-entry-v1 envelope; empty for a tombstone
//	crc     uint32, little-endian: CRC-32C over hash, length and body
//
// A later record for a hash replaces an earlier one; a tombstone removes it.
const (
	hashLen        = 64
	recordHeader   = hashLen + 4
	recordOverhead = recordHeader + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// extent locates one entry's body in the log.
type extent struct {
	off int64
	n   int
}

// DiskCache stores every entry of a directory in one append-only,
// checksummed log, <dir>/entries.log, and keeps an in-memory index from
// cell hash to the entry's place in it. Opening the cache scans the log;
// the first short or damaged record ends the scan, its bytes onward are
// copied into QuarantineDir and the log is cut back to its whole records.
// A store appends one record and syncs the file before the entry is
// indexed, so an entry that was ever loadable survives a crash. Every load
// re-verifies the envelope; one that fails is quarantined (copied aside,
// dropped from the index, tombstoned in the log, counted) and recomputed
// instead of silently missed or — worse — trusted.
//
// A flock(2)-style lock on <dir>/.lock guards the directory: concurrent
// sweeps must use distinct -cachedir values (the lock dies with the
// process, so a crashed sweep never wedges the directory).
//
// Note: system.Result's full latency histogram is excluded from JSON
// (json:"-"), so cache hits carry the digests (p50/p95/p99) but not the
// raw distribution — none of the grid renderers use it.
type DiskCache struct {
	dir string

	// Warnings (store failures, quarantined entries) go here; defaults to
	// os.Stderr. Never nil after OpenDiskCache.
	warn io.Writer

	faults *faultinject.Plan

	// wmu serializes every write to the log — appends, the rollback of a
	// failed one — and Close. Take it before mu.
	wmu  sync.Mutex
	lock *os.File // held flock; nil after Close
	size int64    // length of the log's whole records: the next append offset

	// mu guards the index and the log handle. Loads hold it only for the
	// lookup, never across I/O, so they do not wait for a store's sync.
	mu    sync.Mutex
	log   *os.File // nil until the first record is written
	index map[string]extent

	reg         *metrics.Registry
	hits        *metrics.Counter
	misses      *metrics.Counter
	corrupt     *metrics.Counter
	stores      *metrics.Counter
	storeErrors *metrics.Counter
}

// OpenDiskCache creates (if needed) and opens a cache directory, acquiring
// its lock and indexing its log. It fails if another live process holds
// the directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: opening cache dir: %w", err)
	}
	lock, err := acquireDirLock(filepath.Join(dir, ".lock"))
	if err != nil {
		return nil, fmt.Errorf("runner: cache dir %s: %w (concurrent sweeps must use distinct -cachedir)", dir, err)
	}
	c := &DiskCache{dir: dir, lock: lock, warn: os.Stderr, index: map[string]extent{}, reg: metrics.NewRegistry()}
	sc := c.reg.Scope("runner/cache")
	c.hits = sc.Counter("hits")
	c.misses = sc.Counter("misses")
	c.corrupt = sc.Counter("corrupt_quarantined")
	c.stores = sc.Counter("stores")
	c.storeErrors = sc.Counter("store_errors")
	if err := c.openLog(); err != nil {
		_ = releaseDirLock(lock) // the open has failed; its error is the one to report
		return nil, fmt.Errorf("runner: cache dir %s: %w", dir, err)
	}
	return c, nil
}

// openLog indexes an existing log and cuts it back to its whole records.
// A directory without one stays without one until the first store.
func (c *DiskCache) openLog() error {
	f, err := os.OpenFile(filepath.Join(c.dir, logName), os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil {
		c.size, err = c.scan(f, fi.Size())
	}
	if err == nil && c.size < fi.Size() {
		c.quarantineTail(f, c.size, fi.Size())
		if err = f.Truncate(c.size); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("recovering %s: %w", logName, err)
	}
	c.log = f
	return nil
}

// scan indexes the whole records among the first size bytes of the log
// and returns the offset where the first short or damaged one starts
// (size when there is none).
func (c *DiskCache) scan(f *os.File, size int64) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 64<<10)
	var hdr [recordHeader]byte
	var sum [4]byte
	var body []byte
	off := int64(0)
	for size-off >= recordOverhead {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[hashLen:]))
		if n > size-off-recordOverhead {
			break
		}
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return off, err
		}
		if _, err := io.ReadFull(r, sum[:]); err != nil {
			return off, err
		}
		crc := crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, body)
		hash := string(hdr[:hashLen])
		if crc != binary.LittleEndian.Uint32(sum[:]) || !ValidHash(hash) {
			break
		}
		if n == 0 {
			delete(c.index, hash)
		} else {
			c.index[hash] = extent{off: off + recordHeader, n: int(n)}
		}
		off += recordOverhead + n
	}
	return off, nil
}

// quarantineTail copies the log's bytes [from, to) — a torn or damaged
// tail the scan could not index — into QuarantineDir and counts them as
// one corrupt entry.
func (c *DiskCache) quarantineTail(f *os.File, from, to int64) {
	c.corrupt.Inc()
	qdir := filepath.Join(c.dir, QuarantineDir)
	err := os.MkdirAll(qdir, 0o755)
	var q *os.File
	if err == nil {
		q, err = os.CreateTemp(qdir, fmt.Sprintf("%s.%d.*", logName, from))
	}
	if err == nil {
		_, err = io.Copy(q, io.NewSectionReader(f, from, to-from))
		if cerr := q.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(c.warn, "runner: cache: damaged log tail (%d bytes at offset %d) dropped (quarantine failed: %v)\n",
			to-from, from, err)
		return
	}
	fmt.Fprintf(c.warn, "runner: cache: damaged log tail (%d bytes at offset %d) quarantined to %s\n",
		to-from, from, q.Name())
}

// Close releases the directory lock and the log. The cache must not be
// used after.
func (c *DiskCache) Close() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.lock == nil {
		return nil
	}
	c.mu.Lock()
	f := c.log
	c.log, c.index = nil, nil
	c.mu.Unlock()
	var err error
	if f != nil {
		err = f.Close()
	}
	if lerr := releaseDirLock(c.lock); err == nil {
		err = lerr
	}
	c.lock = nil
	return err
}

// SetWarnWriter redirects corruption/store-failure warnings (nil silences
// them).
func (c *DiskCache) SetWarnWriter(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	c.warn = w
}

// SetFaults arms fault injection for chaos tests: Corrupt faults at
// SiteCacheLoad damage the bytes read from disk (so the real checksum and
// quarantine path runs), WriteFail faults at SiteCacheStore fail a store
// after its record is written and before it is synced (so the real
// rollback and degraded-store path runs). Call before handing the cache to
// a runner.
func (c *DiskCache) SetFaults(p *faultinject.Plan) { c.faults = p }

// Metrics returns the cache's counters (hits, misses, corrupt_quarantined,
// stores, store_errors) under the runner/cache scope.
func (c *DiskCache) Metrics() metrics.Snapshot { return c.reg.Snapshot() }

// CorruptCount returns how many entries have been quarantined.
func (c *DiskCache) CorruptCount() uint64 { return c.corrupt.Value() }

// StoreErrorCount returns how many stores failed (and were degraded to
// recomputation on the next run).
func (c *DiskCache) StoreErrorCount() uint64 { return c.storeErrors.Value() }

// Dir returns the cache directory.
func (c *DiskCache) Dir() string { return c.dir }

// Load implements Cache. Absent entries are misses; entries that cannot be
// read back or fail schema or checksum verification are quarantined,
// counted, and reported as misses so the cell recomputes.
func (c *DiskCache) Load(hash string) (system.Result, bool) {
	data, e, ok := c.read(hash)
	if !ok {
		c.misses.Inc()
		return system.Result{}, false
	}
	if f, ok := c.faults.Evaluate(faultinject.SiteCacheLoad, hash, 0); ok && f.Kind == faultinject.Corrupt {
		faultinject.CorruptBytes(data, hash)
	}
	res, err := decodeEntry(data)
	if err != nil {
		c.quarantine(hash, e, data, err)
		c.misses.Inc()
		return system.Result{}, false
	}
	c.hits.Inc()
	return res, true
}

// read returns the logged body for hash. A body that cannot be read back
// whole is quarantined like one that fails verification.
func (c *DiskCache) read(hash string) ([]byte, extent, bool) {
	c.mu.Lock()
	e, ok := c.index[hash]
	f := c.log
	c.mu.Unlock()
	if !ok {
		return nil, e, false
	}
	data := make([]byte, e.n)
	if n, err := f.ReadAt(data, e.off); err != nil {
		c.quarantine(hash, e, data[:n], err)
		return nil, e, false
	}
	return data, e, true
}

// DecodeEntry verifies and unwraps one cameo-cache-entry-v1 envelope:
// schema pin, payload checksum, payload decode. It is the single
// verification path for entries from any source — local disk, a cache peer
// over HTTP, a backup — so a flipped bit or truncation is rejected
// identically everywhere.
func DecodeEntry(data []byte) (system.Result, error) { return decodeEntry(data) }

// EncodeEntry wraps a result in the checksummed cameo-cache-entry-v1
// envelope — the exact bytes DiskCache persists and the cache-peer protocol
// ships.
func EncodeEntry(res system.Result) ([]byte, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("runner: marshalling result: %w", err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(cacheEntry{
		Schema:  entrySchema,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("runner: marshalling envelope: %w", err)
	}
	return data, nil
}

// decodeEntry verifies and unwraps one on-disk entry.
func decodeEntry(data []byte) (system.Result, error) {
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return system.Result{}, fmt.Errorf("entry is not valid JSON: %w", err)
	}
	if e.Schema != entrySchema {
		return system.Result{}, fmt.Errorf("entry schema %q, want %q", e.Schema, entrySchema)
	}
	sum := sha256.Sum256(e.Payload)
	if got := hex.EncodeToString(sum[:]); got != e.SHA256 {
		return system.Result{}, fmt.Errorf("payload checksum %s does not match recorded %s", got, e.SHA256)
	}
	var res system.Result
	if err := json.Unmarshal(e.Payload, &res); err != nil {
		return system.Result{}, fmt.Errorf("payload does not decode: %w", err)
	}
	return res, nil
}

// quarantine drops an entry whose body failed verification: its bytes are
// copied to QuarantineDir/<hash>.json for post-mortem, the index forgets
// it, and a tombstone keeps a reopen from indexing it again. e is where
// the failed bytes came from; when a concurrent load has already dropped
// that entry this one does nothing, so each bad record counts once.
func (c *DiskCache) quarantine(hash string, e extent, data []byte, cause error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	cur, ok := c.index[hash]
	ok = ok && cur == e
	if ok {
		delete(c.index, hash)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	c.corrupt.Inc()
	if err := c.appendLocked(hash, nil); err != nil {
		fmt.Fprintf(c.warn, "runner: cache: tombstone for %s not written (a reopen re-verifies it): %v\n", hash, err)
	}
	qdir := filepath.Join(c.dir, QuarantineDir)
	dest := filepath.Join(qdir, hash+".json")
	err := os.MkdirAll(qdir, 0o755)
	if err == nil {
		err = os.WriteFile(dest, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(c.warn, "runner: cache: corrupt entry %s dropped (quarantine failed: %v): %v\n",
			hash, err, cause)
		return
	}
	fmt.Fprintf(c.warn, "runner: cache: corrupt entry quarantined to %s: %v\n", dest, cause)
}

// Store implements Cache; failures degrade to a warning plus the
// store_errors counter (the cell simply recomputes next run).
func (c *DiskCache) Store(hash string, res system.Result) {
	data, err := EncodeEntry(res)
	if err != nil {
		c.storeFailed(hash, err)
		return
	}
	if err := c.append(hash, data); err != nil {
		c.storeFailed(hash, err)
		return
	}
	c.stores.Inc()
}

// LoadRaw returns the verified envelope bytes for a cell hash — the unit
// the cache-peer protocol serves. Entries failing verification are
// quarantined exactly as in Load, so a worker never ships corruption to a
// peer; raw reads deliberately skip the hit/miss counters, which track
// local cell decisions, not peer traffic.
func (c *DiskCache) LoadRaw(hash string) ([]byte, bool) {
	data, e, ok := c.read(hash)
	if !ok {
		return nil, false
	}
	if _, err := decodeEntry(data); err != nil {
		c.quarantine(hash, e, data, err)
		return nil, false
	}
	return data, true
}

// StoreRaw verifies an envelope received from elsewhere (a cache peer's
// PUT, a peer GET being adopted locally) and persists it durably.
// Unlike Store, failures are returned, not swallowed: the caller is a
// protocol handler that must answer 4xx for a corrupt entry.
func (c *DiskCache) StoreRaw(hash string, data []byte) error {
	if _, err := decodeEntry(data); err != nil {
		return fmt.Errorf("runner: cache: refusing unverified entry %.12s: %w", hash, err)
	}
	if err := c.append(hash, data); err != nil {
		c.storeErrors.Inc()
		return err
	}
	c.stores.Inc()
	return nil
}

// errClosed fails writes to a closed cache.
var errClosed = errors.New("runner: cache is closed")

// append durably logs body as hash's entry. Cells are content-addressed,
// so an entry already indexed holds the same bytes and is not written
// again.
func (c *DiskCache) append(hash string, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	_, have := c.index[hash]
	c.mu.Unlock()
	if have {
		return nil
	}
	return c.appendLocked(hash, body)
}

// appendLocked writes one record at the end of the log, syncs it, and
// only then updates the index (an empty body is a tombstone). A failed
// write or sync indexes nothing and cuts the log back to its previous
// length. Callers hold wmu.
func (c *DiskCache) appendLocked(hash string, body []byte) error {
	if c.lock == nil {
		return errClosed
	}
	if !ValidHash(hash) {
		return fmt.Errorf("runner: cache: malformed cell hash %q", hash)
	}
	if c.log == nil {
		f, err := os.OpenFile(filepath.Join(c.dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		// The log's directory entry must be as durable as its first record.
		if err := syncDir(c.dir); err != nil {
			f.Close()
			return err
		}
		c.mu.Lock()
		c.log = f
		c.mu.Unlock()
	}
	rec := appendRecord(nil, hash, body)
	_, err := c.log.WriteAt(rec, c.size)
	if err == nil && len(body) > 0 { // a tombstone is not a store
		if f, ok := c.faults.Evaluate(faultinject.SiteCacheStore, hash, 0); ok && f.Kind == faultinject.WriteFail {
			err = fmt.Errorf("faultinject: injected write failure")
		}
	}
	if err == nil {
		err = c.log.Sync()
	}
	if err != nil {
		_ = c.log.Truncate(c.size) // best effort: the next append overwrites from c.size anyway
		return err
	}
	c.mu.Lock()
	if len(body) == 0 {
		delete(c.index, hash)
	} else {
		c.index[hash] = extent{off: c.size + recordHeader, n: len(body)}
	}
	c.mu.Unlock()
	c.size += int64(len(rec))
	return nil
}

// appendRecord appends the log record for hash and body to buf.
func appendRecord(buf []byte, hash string, body []byte) []byte {
	start := len(buf)
	buf = append(buf, hash...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// ValidHash accepts exactly the lowercase hex SHA-256 shape Job.Hash
// produces: the only keys a record can hold, and safe as a file name.
func ValidHash(h string) bool {
	if len(h) != hashLen {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// storeFailed records and reports one degraded store.
func (c *DiskCache) storeFailed(hash string, err error) {
	c.storeErrors.Inc()
	fmt.Fprintf(c.warn, "runner: cache: store of %s failed (will recompute next run): %v\n", hash, err)
}

// Len counts the entries currently indexed.
func (c *DiskCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// QuarantinedEntries lists the file names currently in the quarantine
// subdirectory (empty when nothing was ever quarantined).
func (c *DiskCache) QuarantinedEntries() []string {
	entries, err := os.ReadDir(filepath.Join(c.dir, QuarantineDir))
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names
}
