// Package sim provides the discrete-event backbone of the simulator: a
// cycle-granular clock and an event queue with deterministic ordering.
//
// The DRAM model does not need events (it is timed analytically with
// busy-until state); the engine exists to interleave the cores — each core
// schedules its next issue/retire point and the engine processes them in
// global time order so that contention in the shared memory system is
// observed consistently.
//
// The queue is a calendar queue: one FIFO bucket per cycle over a window of
// wheelSize cycles starting at Now, found through an occupancy bitmap, plus a
// 4-ary min-heap for the rare events scheduled beyond the window (long
// memory stalls and page-fault blocks). Events fire in (cycle, insertion
// sequence) order: a bucket holds a single cycle and appends in sequence
// order, and each step takes the smaller of the first bucket's head and the
// far heap's top. Callbacks live in value-type nodes recycled through a free
// list, so scheduling and firing are allocation-free in steady state (see
// DESIGN.md §Performance).
package sim

import "math/bits"

// Cycle is a point in simulated time, in CPU cycles (3.2 GHz in the paper's
// configuration). A uint64 cycle counter at 3.2 GHz lasts ~180 years of
// simulated time, so overflow is not a practical concern.
type Cycle = uint64

// wheelSize is the calendar window in cycles. In the 32-core paper cells at
// least 99% of At calls land within it (issue gaps and memory-latency
// retries); each bucket costs 8 bytes of head and tail per engine.
const (
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// entry is one scheduled callback with its ordering key, inline so that
// comparisons never chase a pointer. The far heap holds entries directly.
type entry struct {
	at  Cycle
	seq uint64 // insertion order; breaks ties deterministically
	fn  func(now Cycle)
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// node is an entry chained into a bucket.
type node struct {
	entry
	next int32 // next node of the same bucket; meaningless at the tail
}

// Stats counts engine activity over the run.
type Stats struct {
	EventsFired uint64 // events dispatched by Step
	MaxPending  uint64 // high-water mark of pending events
}

// preemptStride is how many events Run fires between polls of the
// cancellation channel. One poll per event would put a channel operation on
// the hottest loop in the simulator; one poll per stride keeps the check
// amortized to a fraction of a nanosecond per event while bounding the
// preemption latency to a few hundred microseconds of wall time.
const preemptStride = 4096

// Engine owns the clock and the pending-event queue.
type Engine struct {
	now     Cycle
	nextSeq uint64
	pending int

	// Bucket b holds the events of the one cycle c in [now, now+wheelSize)
	// with c&wheelMask == b, chained head to tail through nodes; its bit in
	// occupied is set while the chain is non-empty.
	head     [wheelSize]int32
	tail     [wheelSize]int32
	occupied [wheelWords]uint64
	nodes    []node
	free     []int32 // recycled node indices

	far []entry // 4-ary min-heap of events beyond the window

	// Cooperative cancellation: done is polled every preemptStride events;
	// countdown and preempted are owned by the run-loop goroutine.
	done      <-chan struct{}
	countdown int
	preempted bool

	stats Stats
}

// NewEngine returns an engine at cycle 0 with no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// At schedules fn to run at cycle at. Scheduling in the past is a
// programming error and panics: time in a discrete-event simulation must be
// monotone or results are not reproducible.
func (e *Engine) At(at Cycle, fn func(now Cycle)) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	seq := e.nextSeq
	e.nextSeq++
	if e.pending++; uint64(e.pending) > e.stats.MaxPending {
		e.stats.MaxPending = uint64(e.pending)
	}
	if at-e.now >= wheelSize {
		e.push(entry{at: at, seq: seq, fn: fn})
		return
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.nodes = append(e.nodes, node{})
		idx = int32(len(e.nodes) - 1)
	}
	e.nodes[idx] = node{entry: entry{at: at, seq: seq, fn: fn}}
	b := at & wheelMask
	if w, bit := b>>6, uint64(1)<<(b&63); e.occupied[w]&bit == 0 {
		e.occupied[w] |= bit
		e.head[b] = idx
	} else {
		e.nodes[e.tail[b]].next = idx
	}
	e.tail[b] = idx
}

// Stats returns a snapshot of the engine's activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func(now Cycle)) {
	e.At(e.now+delay, fn)
}

// SetCancel binds a cancellation channel (normally ctx.Done()) to Run: it
// polls the channel every preemptStride events and returns early once it
// is closed. A nil channel (the default) disables polling entirely, so
// engines that never need preemption pay nothing. The first poll happens
// before the first event, so a run bound to an already-cancelled context
// fires no events at all.
func (e *Engine) SetCancel(done <-chan struct{}) {
	e.done = done
	e.countdown = 1
}

// Preempted reports whether the last Run returned because the cancellation
// channel closed (as opposed to draining the queue).
func (e *Engine) Preempted() bool { return e.preempted }

// cancelled is the run loop's per-iteration preemption check: a countdown
// decrement on the fast path, a non-blocking channel poll every
// preemptStride events.
func (e *Engine) cancelled() bool {
	if e.done == nil {
		return false
	}
	if e.countdown--; e.countdown > 0 {
		return false
	}
	e.countdown = preemptStride
	select {
	case <-e.done:
		e.preempted = true
		return true
	default:
		return false
	}
}

// firstBucket returns the occupied bucket holding the earliest cycle of the
// window, scanning the bitmap circularly from now's bucket.
func (e *Engine) firstBucket() (Cycle, bool) {
	start := e.now & wheelMask
	w := start >> 6
	if m := e.occupied[w] >> (start & 63); m != 0 {
		return start + Cycle(bits.TrailingZeros64(m)), true
	}
	for i := Cycle(1); i <= wheelWords; i++ {
		wi := (w + i) & (wheelWords - 1)
		if m := e.occupied[wi]; m != 0 {
			return wi<<6 + Cycle(bits.TrailingZeros64(m)), true
		}
	}
	return 0, false
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool {
	var fn func(now Cycle)
	b, ok := e.firstBucket()
	if ok && (len(e.far) == 0 || e.nodes[e.head[b]].before(e.far[0])) {
		idx := e.head[b]
		n := &e.nodes[idx]
		e.now, fn = n.at, n.fn
		n.fn = nil
		if idx == e.tail[b] {
			e.occupied[b>>6] &^= 1 << (b & 63)
		} else {
			e.head[b] = n.next
		}
		e.free = append(e.free, idx)
	} else if len(e.far) > 0 {
		top := e.far[0]
		e.pop()
		e.now, fn = top.at, top.fn
	} else {
		return false
	}
	e.pending--
	e.stats.EventsFired++
	fn(e.now)
	return true
}

// Run processes events in time order until the queue drains or the
// cancellation channel bound with SetCancel closes. It returns the final
// cycle; Preempted distinguishes cancellation from a drained queue.
func (e *Engine) Run() Cycle {
	e.preempted = false
	for !e.cancelled() && e.Step() {
	}
	return e.now
}

// push appends v and sifts it up the 4-ary far heap.
func (e *Engine) push(v entry) {
	h := append(e.far, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !v.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = v
	e.far = h
}

// pop removes the far heap's minimum (root) entry, restoring heap order by
// sifting the displaced tail element down.
func (e *Engine) pop() {
	h := e.far
	n := len(h) - 1
	v := h[n]
	h[n] = entry{} // drop the callback reference
	h = h[:n]
	e.far = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Select the smallest of up to four children.
		min := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if h[k].before(h[min]) {
				min = k
			}
		}
		if !h[min].before(v) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = v
}
