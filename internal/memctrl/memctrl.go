// Package memctrl implements a queued memory controller with FR-FCFS
// scheduling — the second, higher-fidelity timing engine behind the
// dram.Device interface. Where dram.Module services requests strictly in
// call order per bank, this controller keeps a request queue and, each
// time a bank can issue, picks first-ready (open-row hits), then
// first-come; reads are prioritized over posted writes until a write-queue
// watermark forces a drain.
//
// The controller operates lazily inside the synchronous Device interface:
// a posted write joins the queue and returns a nominal completion at once,
// and a read issues queued writes greedily until it is itself the pick, so
// its completion is known when its Access returns. Between calls only
// posted writes wait. Calls come in the order the organizations make them,
// not in time order: an organization may pass a probe's completion as at
// (CAMEO's serial off-chip fetch, Alloy's miss path), so a call can carry an
// earlier at than a previous one, also on the same bank. Work issued by
// earlier calls is never revisited, so such a request is scheduled against
// the bank and bus state those calls left — the greedy schedule
// approximates, rather than equals, an online one.
//
// Hot-path layout (DESIGN.md §Performance): each bank chains its queued
// writes and caches the pick key of the best of them, so an issue
// rescans only the bank it changed, and choosing the next write scans one
// cached key per bank that holds writes. Keys are totally ordered (the
// sequence number breaks every tie), so storage order is irrelevant, and
// all queue storage is preallocated: steady-state operation performs no
// allocation.
package memctrl

import (
	"cameo/internal/dram"
	"cameo/internal/metrics"
)

// writeBias is the scheduling handicap applied to writes so that reads of
// similar readiness win (read priority).
const writeBias = 200

// writeDrainWatermark is the queued-write count that forces writes to
// compete on equal terms until drained.
const writeDrainWatermark = 32

// queueCap bounds the pending queue; beyond it the oldest requests are
// issued unconditionally (a real controller's full-queue backpressure).
const queueCap = 128

// rowMiss is the tie-break bit that ranks a row miss after every row hit
// that starts in the same cycle; the sequence number fills the bits below.
const rowMiss = 1 << 63

// write is one queued posted write, decoded at enqueue.
type write struct {
	row     uint64
	arrival uint64
	seq     uint64
	xfer    uint64 // data-bus cycles of the transfer
	ch      int32
	next    int32 // next write queued on the same bank; -1 ends the chain
}

// best is the pick key of one bank's best queued write, before the write
// bias: its effective start, then the row-miss bit over its sequence number.
type best struct {
	start uint64
	tie   uint64
	bank  int32
	slot  int32
}

func (a *best) before(start, tie uint64) bool {
	return a.start < start || (a.start == start && a.tie < tie)
}

type bankState struct {
	openRow   uint64
	hasOpen   bool
	busyUntil uint64
	lastAct   uint64
	head      int32 // first queued write of the bank; -1 when none
	active    int32 // index of the bank's entry in Controller.active
}

// key is pick's ordering key for a request to row arriving at arrival on
// this bank, before the write bias: first-ready (earliest start, then open
// row hits), then first-come.
func (b *bankState) key(arrival, row, seq uint64) (start, tie uint64) {
	start, tie = max(arrival, b.busyUntil), seq
	if !b.hasOpen || b.openRow != row {
		tie |= rowMiss
	}
	return start, tie
}

// Controller schedules requests over the same geometry and timing
// parameters as dram.Module. It implements dram.Device.
type Controller struct {
	cfg dram.Config
	dec dram.Decoder

	tCAS uint64
	tRCD uint64
	tRP  uint64
	tRAS uint64

	banks []bankState
	buses []uint64

	// Queued posted writes live in slots, chained per bank; free holds the
	// unused slot indices, and active the best write of each bank that has
	// one.
	slots   []write
	free    []int32
	active  []best
	writes  int // queued writes
	nextSeq uint64

	stats dram.Stats
	// maxQueueDepth is the pending-queue high-water mark — the controller's
	// engine-specific observability signal (published via RegisterExtraMetrics).
	maxQueueDepth int
}

var _ dram.Device = (*Controller)(nil)

// New builds a controller from cfg, panicking on an invalid configuration —
// the convenience path for static program data. Code handling
// runtime-supplied configurations should use NewController, whose error
// surfaces as a per-cell job failure instead of a crash.
func New(cfg dram.Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewController builds a controller from cfg, reporting a descriptive error
// for an invalid configuration — the configuration boundary where bad sweep
// cells are rejected (the runner treats such errors as permanent). The
// write-buffering and refresh flags of cfg are ignored: queueing and read
// priority are inherent here, and refresh belongs to the analytic model's
// ablation.
func NewController(cfg dram.Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cpb := cfg.CPUPerBus()
	c := &Controller{
		cfg:   cfg,
		dec:   cfg.Decoder(),
		tCAS:  uint64(cfg.TCAS) * cpb,
		tRCD:  uint64(cfg.TRCD) * cpb,
		tRP:   uint64(cfg.TRP) * cpb,
		tRAS:  uint64(cfg.TRAS) * cpb,
		banks: make([]bankState, cfg.Channels*cfg.Banks),
		buses: make([]uint64, cfg.Channels),
		// One slot of headroom: a write enqueues before the queue drains
		// back to queueCap.
		slots:  make([]write, queueCap+1),
		free:   make([]int32, queueCap+1),
		active: make([]best, 0, queueCap+1),
	}
	for i := range c.banks {
		c.banks[i].head = -1
	}
	for i := range c.free {
		c.free[i] = int32(queueCap - i)
	}
	return c, nil
}

// Config implements dram.Device.
func (c *Controller) Config() dram.Config { return c.cfg }

// Stats implements dram.Device.
func (c *Controller) Stats() dram.Stats { return c.stats }

// ResetStats implements dram.Device.
func (c *Controller) ResetStats() { c.stats = dram.Stats{} }

// QueueDepth reports the pending request count, for tests. Between calls
// it equals QueuedWrites: a read never outlives its own Access.
func (c *Controller) QueueDepth() int { return c.writes }

// QueuedWrites reports the pending write count, for invariant tests.
func (c *Controller) QueuedWrites() int { return c.writes }

// MaxQueueDepth reports the pending-queue high-water mark, counting a read
// while its Access schedules it.
func (c *Controller) MaxQueueDepth() int { return c.maxQueueDepth }

// RegisterExtraMetrics implements dram.ExtraMetrics: the controller's
// scheduling-specific signals beyond the shared Stats counters.
func (c *Controller) RegisterExtraMetrics(s *metrics.Scope) {
	s.GaugeFunc("queue_max_depth", func() float64 { return float64(c.maxQueueDepth) })
}

// Access implements dram.Device. It never panics: a non-positive size (a
// caller bug — every organization issues LineBytes/LEADBytes constants) is
// clamped to a zero-byte control access costing one beat, keeping a bad
// cell inside the per-cell failure domain instead of crashing the sweep.
func (c *Controller) Access(at uint64, line uint64, bytes int, isWrite bool) uint64 {
	if bytes < 0 {
		bytes = 0
	}
	ch, bank, row := c.dec.Decode(line)
	xfer := c.dec.TransferCycles(bytes)
	seq := c.nextSeq
	c.nextSeq++
	if isWrite {
		c.enqueue(bank, write{row: row, arrival: at, seq: seq, xfer: xfer, ch: int32(ch)})
		c.maxQueueDepth = max(c.maxQueueDepth, c.writes)
		c.stats.Writes++
		c.stats.BytesWritten += uint64(bytes)
		// Posted: drain when the queue is pressed, bounding memory use on
		// write-heavy streams; report a nominal completion.
		for c.writes > queueCap {
			c.issueWrite(c.bestWrite())
		}
		return at + c.tCAS + xfer
	}
	c.maxQueueDepth = max(c.maxQueueDepth, c.writes+1)
	c.stats.Reads++
	c.stats.BytesRead += uint64(bytes)
	// Issue queued writes until the read is the pick: the minimum of
	// (start + write bias, row miss, seq), where the bias lifts in drain
	// mode. The bias is the same for every write, so the best write ranks
	// first among writes either way.
	b := &c.banks[bank]
	for c.writes > 0 {
		i := c.bestWrite()
		w := c.active[i]
		if c.writes < writeDrainWatermark {
			w.start += writeBias
		}
		if !w.before(b.key(at, row, seq)) {
			break
		}
		c.issueWrite(i)
	}
	done := c.service(b, ch, row, at, xfer)
	if b.head >= 0 {
		c.rescan(bank, -1)
	}
	c.stats.TotalReadLatency += done - at
	return done
}

// enqueue queues a posted write on bank.
func (c *Controller) enqueue(bank int, w write) {
	n := len(c.free) - 1
	slot := c.free[n]
	c.free = c.free[:n]
	b := &c.banks[bank]
	w.next = b.head
	c.slots[slot] = w
	start, tie := b.key(w.arrival, w.row, w.seq)
	if b.head < 0 {
		b.active = int32(len(c.active))
		c.active = append(c.active, best{start: start, tie: tie, bank: int32(bank), slot: slot})
	} else if a := &c.active[b.active]; !a.before(start, tie) {
		a.start, a.tie, a.slot = start, tie, slot
	}
	b.head = slot
	c.writes++
}

// bestWrite returns the index in active of the bank holding the best queued
// write. There must be one.
func (c *Controller) bestWrite() int {
	bi := 0
	for i := 1; i < len(c.active); i++ {
		if c.active[i].before(c.active[bi].start, c.active[bi].tie) {
			bi = i
		}
	}
	return bi
}

// issueWrite issues the best write of the bank at active[i].
func (c *Controller) issueWrite(i int) {
	a := c.active[i]
	w := &c.slots[a.slot]
	c.service(&c.banks[a.bank], int(w.ch), w.row, w.arrival, w.xfer)
	c.writes--
	c.free = append(c.free, a.slot)
	c.rescan(int(a.bank), a.slot)
}

// rescan recomputes bank's cached best write after an issue changed the
// bank's state, unlinking slot drop (when not -1) from its chain on the way.
// A bank left without writes leaves active.
func (c *Controller) rescan(bank int, drop int32) {
	b := &c.banks[bank]
	a := &c.active[b.active]
	link, found := &b.head, false
	for s := b.head; s >= 0; s = c.slots[s].next {
		w := &c.slots[s]
		if s == drop {
			*link = w.next
			continue
		}
		link = &w.next
		if start, tie := b.key(w.arrival, w.row, w.seq); !found || !a.before(start, tie) {
			a.start, a.tie, a.slot, found = start, tie, s, true
		}
	}
	if !found {
		last := len(c.active) - 1
		*a = c.active[last]
		c.banks[a.bank].active = b.active
		c.active = c.active[:last]
	}
}

// service runs the bank and bus timing of one request and returns its
// completion cycle.
func (c *Controller) service(bank *bankState, ch int, row, arrival, xfer uint64) uint64 {
	start := max(arrival, bank.busyUntil)
	var ready uint64
	switch {
	case bank.hasOpen && bank.openRow == row:
		c.stats.RowHits++
		ready = start + c.tCAS
	case !bank.hasOpen:
		c.stats.RowMisses++
		bank.lastAct = start
		ready = start + c.tRCD + c.tCAS
	default:
		c.stats.RowMisses++
		preStart := start
		if earliest := bank.lastAct + c.tRAS; earliest > preStart {
			preStart = earliest
		}
		actStart := preStart + c.tRP
		bank.lastAct = actStart
		ready = actStart + c.tRCD + c.tCAS
	}
	bank.hasOpen = true
	bank.openRow = row

	done := max(ready, c.buses[ch]) + xfer
	c.buses[ch] = done
	bank.busyUntil = done
	return done
}
