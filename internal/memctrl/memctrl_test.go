package memctrl

import (
	"fmt"
	"testing"
	"testing/quick"

	"cameo/internal/dram"
	"cameo/internal/xrand"
)

func testCtrl() *Controller { return New(dram.OffChipConfig(4 << 20)) }

// tableI lists both Table I geometries: 8 × 8 off-chip and 16 × 16 stacked.
var tableI = []dram.Config{dram.OffChipConfig(4 << 20), dram.StackedConfig(4 << 20)}

func TestSingleReadMatchesAnalyticModel(t *testing.T) {
	// With no queue, the controller's timing must equal dram.Module's.
	ctrl := testCtrl()
	mod := dram.NewModule(dram.OffChipConfig(4 << 20))
	for i, line := range []uint64{0, 99, 4096, 77777} {
		at := uint64(i) * 1_000_000
		dc := ctrl.Access(at, line, 64, false)
		dm := mod.Access(at, line, 64, false)
		if dc != dm {
			t.Fatalf("line %d: controller %d != module %d", line, dc, dm)
		}
	}
}

func TestReadsCompleteAfterArrival(t *testing.T) {
	check := func(line uint32, at uint32) bool {
		c := testCtrl()
		return c.Access(uint64(at), uint64(line), 64, false) > uint64(at)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	// Post a write to a bank, then read the same bank: the read must not
	// queue behind the (handicapped) write.
	ctrl := testCtrl()
	plain := dram.NewModule(dram.OffChipConfig(4 << 20))
	ctrl.Access(0, 0, 64, true)
	plain.Access(0, 0, 64, true)
	dCtrl := ctrl.Access(0, 0, 64, false)
	dPlain := plain.Access(0, 0, 64, false)
	if dCtrl >= dPlain {
		t.Fatalf("FR-FCFS read %d not faster than in-order %d", dCtrl, dPlain)
	}
}

func TestRowHitFirstScheduling(t *testing.T) {
	// Two pending writes: one row-hit, one row-miss on the same bank. After
	// a read primes the row, draining must service the row hit first (it
	// completes earlier than the conflicting write would).
	cfg := dram.OffChipConfig(4 << 20)
	ctrl := New(cfg)
	chans := uint64(cfg.Channels)
	rowStride := chans * uint64(cfg.RowBufferBytes/64) * uint64(cfg.Banks)

	ctrl.Access(0, 0, 64, false)               // opens row 0 on bank 0
	ctrl.Access(1, rowStride, 64, true)        // conflicting write (other row)
	ctrl.Access(2, chans, 64, true)            // row-hit write (same row 0)
	done := ctrl.Access(3, 2*chans, 64, false) // row-hit read drains nothing extra
	_ = done
	// Force a full drain via watermark pressure.
	for i := 0; i < writeDrainWatermark; i++ {
		ctrl.Access(10+uint64(i), uint64(i)*8+4, 64, true)
	}
	ctrl.Access(1_000_000, 1, 64, false)
	st := ctrl.Stats()
	if st.RowHits == 0 {
		t.Fatal("no row hits despite row-hit-first policy")
	}
}

func TestWriteWatermarkForcesDrain(t *testing.T) {
	ctrl := testCtrl()
	for i := 0; i < writeDrainWatermark+5; i++ {
		ctrl.Access(uint64(i), uint64(i*97), 64, true)
	}
	// A read now competes with drain-priority writes; afterwards the queue
	// must be shrinking, not growing without bound.
	ctrl.Access(1000, 0, 64, false)
	if ctrl.QueueDepth() > queueCap {
		t.Fatalf("queue depth %d exceeded cap", ctrl.QueueDepth())
	}
}

func TestQueueCapBackpressure(t *testing.T) {
	ctrl := testCtrl()
	for i := 0; i < queueCap*3; i++ {
		ctrl.Access(uint64(i), uint64(i*31), 64, true)
	}
	if ctrl.QueueDepth() > queueCap+1 {
		t.Fatalf("queue depth %d beyond cap %d", ctrl.QueueDepth(), queueCap)
	}
}

func TestStatsAccounting(t *testing.T) {
	ctrl := testCtrl()
	ctrl.Access(0, 0, 64, false)
	ctrl.Access(100, 1, 80, true)
	st := ctrl.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", st.Reads, st.Writes)
	}
	if st.BytesRead != 64 || st.BytesWritten != 80 {
		t.Fatalf("bytes = %d/%d", st.BytesRead, st.BytesWritten)
	}
	ctrl.ResetStats()
	if ctrl.Stats() != (dram.Stats{}) {
		t.Fatal("reset failed")
	}
}

func TestThroughputAtLeastInOrder(t *testing.T) {
	// On a mixed random stream, FR-FCFS mean read latency should not be
	// materially worse than the in-order model (it reorders to do better).
	cfgA := dram.OffChipConfig(4 << 20)
	ctrl := New(cfgA)
	mod := dram.NewModule(dram.OffChipConfig(4 << 20))
	r := xrand.New(7)
	at := uint64(0)
	for i := 0; i < 20000; i++ {
		line := uint64(r.Intn(1 << 16))
		w := r.Bool(0.3)
		ctrl.Access(at, line, 64, w)
		mod.Access(at, line, 64, w)
		at += 6
	}
	lc, lm := ctrl.Stats().AvgReadLatency(), mod.Stats().AvgReadLatency()
	if lc > lm*1.05 {
		t.Fatalf("FR-FCFS avg read latency %.0f worse than in-order %.0f", lc, lm)
	}
	if ctrl.Stats().RowHitRate() < mod.Stats().RowHitRate() {
		t.Fatalf("FR-FCFS row-hit rate %.3f below in-order %.3f",
			ctrl.Stats().RowHitRate(), mod.Stats().RowHitRate())
	}
}

func TestNonPositiveAccessSizeIsPanicFree(t *testing.T) {
	// Access must never panic on the hot path: a non-positive size (caller
	// bug) is clamped to a zero-byte one-beat control access, and negative
	// sizes must not wrap the byte counters. Validation belongs at the
	// configuration boundary (NewController), not per access.
	c := testCtrl()
	done := c.Access(0, 0, 0, false)
	if done == 0 {
		t.Fatal("zero-byte access reported zero completion")
	}
	if done2 := c.Access(done, 0, -64, true); done2 <= done {
		t.Fatalf("negative-size access completion %d not after %d", done2, done)
	}
	st := c.Stats()
	if st.BytesRead != 0 || st.BytesWritten != 0 {
		t.Fatalf("non-positive sizes charged bytes: read=%d written=%d",
			st.BytesRead, st.BytesWritten)
	}
}

func TestNewControllerRejectsBadConfig(t *testing.T) {
	cfg := dram.StackedConfig(1 << 20)
	cfg.Channels = 0
	if _, err := NewController(cfg); err == nil {
		t.Fatal("NewController accepted zero channels")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New did not panic on invalid config")
		}
	}()
	New(cfg)
}

// TestQueueWritesInvariantUnderPressure pins the queue/writes bookkeeping at
// queueCap pressure: the posted-write drain path must keep the queued-write
// counter equal to the number of write requests actually in the queue, the
// depth bounded by queueCap, and steady-state operation allocation-free.
func TestQueueWritesInvariantUnderPressure(t *testing.T) {
	c := testCtrl()
	r := xrand.New(7)
	countQueuedWrites := func() int {
		n := 0
		for b := range c.banks {
			for s := c.banks[b].head; s >= 0; s = c.slots[s].next {
				n++
			}
		}
		return n
	}
	at := uint64(0)
	for i := 0; i < 10_000; i++ {
		// Write-heavy with clustered rows so the queue actually fills.
		isWrite := r.Bool(0.9)
		c.Access(at, uint64(r.Intn(1<<18)), 64, isWrite)
		at += uint64(r.Intn(3))
		if got, want := c.QueuedWrites(), countQueuedWrites(); got != want {
			t.Fatalf("after %d accesses: writes counter %d, queued writes %d", i+1, got, want)
		}
		if d := c.QueueDepth(); d > queueCap {
			t.Fatalf("after %d accesses: queue depth %d exceeds cap %d", i+1, d, queueCap)
		}
	}
	if c.MaxQueueDepth() > queueCap+1 {
		t.Fatalf("high-water mark %d exceeds cap headroom %d", c.MaxQueueDepth(), queueCap+1)
	}
}

// diffStream feeds n requests to access. Its phases vary the write share
// from read-heavy to pure write bursts long enough to cross the drain
// watermark and fill the queue to queueCap. In most phases most lines fall
// on a few rows of a few banks, so row hits and conflicts meet on shared
// banks; one phase in six spreads its lines uniformly at a 90% write share,
// so writes wait on many banks at once and the heap of banks runs deep.
// About a third of the calls carry an earlier arrival than the call
// before, as calls from the organizations do.
func diffStream(seed uint64, cfg dram.Config, n int, access func(at, line uint64, bytes int, write bool)) {
	r := xrand.New(seed)
	chans, banks := uint64(cfg.Channels), uint64(cfg.Banks)
	linesPerRow := uint64(cfg.RowBufferBytes / dram.LineBytes)
	var now uint64
	writeShare, spread := 0.3, false
	for i := 0; i < n; i++ {
		if i%400 == 0 {
			phase := r.Intn(6)
			writeShare, spread = []float64{0.05, 0.3, 0.6, 0.9, 1, 0.9}[phase], phase == 5
		}
		line := uint64(r.Intn(1 << 20))
		if !spread && r.Bool(0.8) {
			rowGlobal := uint64(r.Intn(4))*banks + uint64(r.Intn(3))
			line = (rowGlobal*linesPerRow+r.Uint64n(linesPerRow))*chans + uint64(r.Intn(2))
		}
		at := now
		switch k := r.Intn(10); {
		case k < 3:
			at -= min(at, uint64(r.Intn(600)))
		case k == 9:
			now += uint64(r.Intn(2000))
		default:
			now += uint64(r.Intn(6))
		}
		bytes := 64
		switch r.Intn(20) {
		case 0:
			bytes = 80
		case 1:
			bytes = 0
		}
		access(at, line, bytes, r.Bool(writeShare))
	}
}

// checkHeap verifies the controller's heap of banks: no entry's key sorts
// before its parent's, each bank's index names its own entry, and the heap
// holds exactly the banks that have writes, each keyed by its best write.
func checkHeap(c *Controller) error {
	h := c.active
	for i, e := range h {
		if p := (i - 1) / 2; i > 0 && e.before(h[p].start, h[p].tie) {
			return fmt.Errorf("heap entry %d (bank %d) sorts before its parent %d (bank %d)", i, e.bank, p, h[p].bank)
		}
		if got := c.banks[e.bank].active; got != int32(i) {
			return fmt.Errorf("bank %d's index %d does not name its heap entry %d", e.bank, got, i)
		}
	}
	n := 0
	for bank := range c.banks {
		b := &c.banks[bank]
		if b.head < 0 {
			continue
		}
		n++
		var want best
		for s := b.head; s >= 0; s = c.slots[s].next {
			w := &c.slots[s]
			if start, tie := b.key(w.arrival, w.row, w.seq); s == b.head || !want.before(start, tie) {
				want = best{start: start, tie: tie, bank: int32(bank), slot: s}
			}
		}
		if i := int(b.active); i >= len(h) || h[i] != want {
			return fmt.Errorf("bank %d holds writes, best %+v, but its heap index %d does not name that entry", bank, want, i)
		}
	}
	if n != len(h) {
		return fmt.Errorf("heap holds %d entries for %d banks with writes", len(h), n)
	}
	return nil
}

// accessBoth makes the same Access on c and ref and reports any difference
// in completion, Stats, queue depth, queued writes or high-water mark, or a
// broken heap invariant in c.
func accessBoth(c *Controller, ref *refController, at, line uint64, bytes int, write bool) error {
	got, want := c.Access(at, line, bytes, write), ref.Access(at, line, bytes, write)
	if got != want || c.Stats() != ref.stats || c.QueueDepth() != len(ref.queue) ||
		c.QueuedWrites() != ref.writes || c.MaxQueueDepth() != ref.maxQueueDepth {
		return fmt.Errorf("completion %d/%d, depth %d/%d, writes %d/%d, max depth %d/%d, stats\n%+v\n%+v",
			got, want, c.QueueDepth(), len(ref.queue), c.QueuedWrites(), ref.writes,
			c.MaxQueueDepth(), ref.maxQueueDepth, c.Stats(), ref.stats)
	}
	return checkHeap(c)
}

// TestControllerMatchesLinearScanReference pins the heap of per-bank write
// queues to the linear-scan controller it replaced: after every Access of
// seeded streams on both Table I geometries, the completion cycle, Stats
// and queue counters must be identical and the heap invariants must hold.
// The streams must reach queueCap pressure, drain-mode reads and, on the
// 256-bank stacked geometry, a heap of at least 64 banks (a paper round's
// picks see up to 55).
func TestControllerMatchesLinearScanReference(t *testing.T) {
	deepest := 0
	for _, cfg := range tableI {
		for seed := uint64(1); seed <= 8; seed++ {
			c, ref := New(cfg), newRef(cfg)
			n, drains := 0, 0
			diffStream(seed, cfg, 20_000, func(at, line uint64, bytes int, write bool) {
				n++
				if !write && ref.writes >= writeDrainWatermark {
					drains++
				}
				if err := accessBoth(c, ref, at, line, bytes, write); err != nil {
					t.Fatalf("%s seed %d access %d (at %d line %d bytes %d write %v): %v",
						cfg.Name, seed, n, at, line, bytes, write, err)
				}
				if cfg.Name == "stacked" {
					deepest = max(deepest, len(c.active))
				}
			})
			if ref.maxQueueDepth != queueCap+1 || drains == 0 {
				t.Fatalf("%s seed %d: stream reached max depth %d and %d drain-mode reads; want queueCap pressure and drains",
					cfg.Name, seed, ref.maxQueueDepth, drains)
			}
		}
	}
	t.Logf("deepest stacked heap: %d banks", deepest)
	if deepest < 64 {
		t.Fatalf("stacked streams held writes on at most %d banks at once; want a heap of at least 64", deepest)
	}
}

// fuzzRecord is the width of one access in a FuzzControllerMatchesReference
// input: a flag byte (bit 0 write, bit 1 arrival earlier than the previous
// call's, bits 2-3 an index into fuzzSizes), the 16-bit little-endian
// distance from the previous call's arrival, and a 24-bit little-endian
// line.
const fuzzRecord = 6

var fuzzSizes = [4]int{64, 80, 0, -64}

// FuzzControllerMatchesReference runs Controller and the linear-scan
// reference side by side on both Table I geometries over decoded accesses,
// failing on any difference or broken heap invariant. The corpus is seeded
// with diffStream prefixes.
func FuzzControllerMatchesReference(f *testing.F) {
	for _, cfg := range tableI {
		for seed := uint64(1); seed <= 4; seed++ {
			var in []byte
			var prev uint64
			diffStream(seed, cfg, 600, func(at, line uint64, bytes int, write bool) {
				var flags byte
				if write {
					flags |= 1
				}
				d := at - prev
				if at < prev {
					flags, d = flags|2, prev-at
				}
				size := 0
				for size < len(fuzzSizes) && fuzzSizes[size] != bytes {
					size++
				}
				if d >= 1<<16 || line >= 1<<24 || size == len(fuzzSizes) {
					f.Fatalf("diffStream access (at %d line %d bytes %d) does not fit a fuzz record", at, line, bytes)
				}
				prev = at
				in = append(in, flags|byte(size)<<2, byte(d), byte(d>>8), byte(line), byte(line>>8), byte(line>>16))
			})
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, cfg := range tableI {
			c, ref := New(cfg), newRef(cfg)
			var at uint64
			for i := 0; i+fuzzRecord <= len(in); i += fuzzRecord {
				r := in[i : i+fuzzRecord]
				if d := uint64(r[1]) | uint64(r[2])<<8; r[0]&2 != 0 {
					at -= min(at, d)
				} else {
					at += d
				}
				line := uint64(r[3]) | uint64(r[4])<<8 | uint64(r[5])<<16
				bytes, write := fuzzSizes[r[0]>>2&3], r[0]&1 != 0
				if err := accessBoth(c, ref, at, line, bytes, write); err != nil {
					t.Fatalf("%s access %d (at %d line %d bytes %d write %v): %v",
						cfg.Name, i/fuzzRecord+1, at, line, bytes, write, err)
				}
			}
		}
	})
}

// TestAccessSteadyStateAllocFree pins Access's zero-allocation steady state
// on both Table I geometries: the write slots and the heap of banks are
// preallocated to queueCap+1 at construction and requests are value types,
// so enqueue/pick/issue never allocate. This is the per-access cost the
// FR-FCFS experiments pay millions of times per cell.
func TestAccessSteadyStateAllocFree(t *testing.T) {
	for _, cfg := range tableI {
		c := New(cfg)
		r := xrand.New(3)
		at := uint64(0)
		for i := 0; i < 4096; i++ {
			c.Access(at, uint64(r.Intn(1<<16)), 64, r.Bool(0.5))
			at += 4
		}
		allocs := testing.AllocsPerRun(2000, func() {
			c.Access(at, uint64(r.Intn(1<<16)), 64, r.Bool(0.5))
			at += 4
		})
		if allocs != 0 {
			t.Fatalf("%s: Access steady state allocates %.1f objects per request", cfg.Name, allocs)
		}
	}
}

func BenchmarkControllerAccess(b *testing.B) {
	ctrl := testCtrl()
	r := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Access(uint64(i)*4, uint64(r.Intn(1<<16)), 64, r.Bool(0.3))
	}
}

// BenchmarkControllerAccessDeepQueue times Access in the regime of an
// FR-FCFS paper cell: a write-heavy stream whose posted writes keep about
// writeDrainWatermark requests queued, so every read competes with a deep
// write queue.
func BenchmarkControllerAccessDeepQueue(b *testing.B) {
	ctrl := testCtrl()
	r := xrand.New(1)
	at := uint64(0)
	access := func() {
		ctrl.Access(at, uint64(r.Intn(1<<16)), 64, r.Bool(0.7))
		at += 4
	}
	for i := 0; i < 10_000; i++ {
		access()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access()
	}
}

// BenchmarkControllerAccessStacked times Access on the 256-bank stacked
// geometry with writes spread uniformly over its banks, so that about 20
// banks hold writes at each pick (a paper round's FR-FCFS picks see 18.4
// on average): the regime where choosing the next write across banks
// costs the most.
func BenchmarkControllerAccessStacked(b *testing.B) {
	ctrl := New(dram.StackedConfig(4 << 20))
	r := xrand.New(1)
	at := uint64(0)
	access := func() {
		ctrl.Access(at, uint64(r.Intn(1<<16)), 64, r.Bool(0.7))
		at += 8
	}
	for i := 0; i < 10_000; i++ {
		access()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access()
	}
}
