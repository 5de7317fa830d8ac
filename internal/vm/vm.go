// Package vm models the operating system's paging layer: per-process page
// tables over a pool of physical frames, demand paging with CLOCK
// replacement (five random probes for a free frame first, per the paper's
// Section III), and SSD-backed major faults with a fixed 100K-cycle service
// latency (Table I).
//
// The organizations under study see only physical line addresses; this
// package is where memory capacity — the property CAMEO and TLM add and a
// hardware cache does not — becomes visible as page-fault stalls and
// storage traffic.
package vm

import (
	"fmt"

	"cameo/internal/xrand"
)

// PageBytes is the OS page size (4 KB in the paper).
const PageBytes = 4096

// LinesPerPage is the number of 64 B lines per page.
const LinesPerPage = PageBytes / 64

// Config sizes the paging layer.
type Config struct {
	// Frames is the number of physical page frames (OS-visible capacity /
	// PageBytes).
	Frames uint64
	// StackedFrames is the number of frames whose physical addresses fall in
	// the stacked-DRAM region [0, StackedFrames). Zero when stacked DRAM is
	// not part of the address space (baseline, cache organizations).
	StackedFrames uint64
	// MajorFaultCycles is the stall for a fault serviced from storage
	// (100K cycles = 32 us in Table I).
	MajorFaultCycles uint64
	// MinorFaultCycles is the stall for a first-touch (zero-fill) fault.
	MinorFaultCycles uint64
	// ClockProbes is the number of random free-frame probes before falling
	// back to the CLOCK hand (5 in the paper).
	ClockProbes int
	// Seed drives victim probing and random placement.
	Seed uint64
}

// DefaultConfig returns the paper's paging parameters for a memory of the
// given frame count.
func DefaultConfig(frames, stackedFrames uint64) Config {
	return Config{
		Frames:           frames,
		StackedFrames:    stackedFrames,
		MajorFaultCycles: 100_000,
		MinorFaultCycles: 1_000,
		ClockProbes:      5,
		Seed:             0x5eed,
	}
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Frames == 0:
		return fmt.Errorf("vm: Frames must be positive")
	case c.StackedFrames > c.Frames:
		return fmt.Errorf("vm: StackedFrames %d exceeds Frames %d", c.StackedFrames, c.Frames)
	case c.ClockProbes < 0:
		return fmt.Errorf("vm: negative ClockProbes")
	case c.Frames > maxFrames:
		return fmt.Errorf("vm: Frames %d exceeds the %d a page-table entry can hold", c.Frames, maxFrames)
	}
	return nil
}

type frameInfo struct {
	owner int    // owning process, -1 when free
	vpage uint64 // owner's virtual page number
	valid bool
	ref   bool // CLOCK reference bit
	dirty bool
}

// Stats counts paging activity.
type Stats struct {
	MinorFaults  uint64
	MajorFaults  uint64
	Evictions    uint64
	DirtyEvicted uint64
	// Storage traffic in bytes (page-in reads, dirty page-out writes).
	BytesFromStorage uint64
	BytesToStorage   uint64
	StallCycles      uint64
}

// Faults returns total faults of both kinds.
func (s Stats) Faults() uint64 { return s.MinorFaults + s.MajorFaults }

// StorageBytes returns total storage traffic.
func (s Stats) StorageBytes() uint64 { return s.BytesFromStorage + s.BytesToStorage }

// FaultOutcome describes the paging work performed by one Translate call.
type FaultOutcome struct {
	// Fault is true when the page was not resident.
	Fault bool
	// Major is true when the page had to be read from storage.
	Major bool
	// StallCycles is the latency the faulting core must absorb.
	StallCycles uint64
	// VictimDirty is true when the eviction wrote a page to storage.
	VictimDirty bool
}

// Memory is the paging layer. Not safe for concurrent use.
type Memory struct {
	cfg    Config
	frames []frameInfo
	// free lists per region, holding frame numbers
	freeStacked []uint64
	freeOffchip []uint64
	tables      []pageTable // per process
	// tcache memoizes each process's last successful translation — a
	// software micro-TLB in front of the page table. Page-local access
	// runs (64 lines per page) make it hit often enough that the table
	// walk leaves the per-access hot path; every operation that remaps
	// or unmaps a page invalidates the affected entry, so it is pure
	// memoization and cannot change any simulation result.
	tcache    []transCache
	clockHand uint64
	rng       *xrand.Rand
	stats     Stats

	// PreferStacked, when non-nil, asks for frames in the stacked region for
	// pages it returns true for (used by TLM-Oracle placement). Fallback is
	// the other region when the preferred one is exhausted.
	PreferStacked func(proc int, vpage uint64) bool
}

// New builds a Memory for nprocs processes. Panics on invalid configuration.
func New(cfg Config, nprocs int) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{
		cfg:    cfg,
		frames: make([]frameInfo, cfg.Frames),
		rng:    xrand.New(cfg.Seed),
	}
	for i := range m.frames {
		m.frames[i].owner = -1
	}
	for f := uint64(0); f < cfg.StackedFrames; f++ {
		m.freeStacked = append(m.freeStacked, f)
	}
	for f := cfg.StackedFrames; f < cfg.Frames; f++ {
		m.freeOffchip = append(m.freeOffchip, f)
	}
	m.tables = make([]pageTable, nprocs)
	m.tcache = make([]transCache, nprocs)
	return m
}

// transCache is one process's last-translation memo (see Memory.tcache).
type transCache struct {
	vpage uint64
	frame uint64
	valid bool
}

// invalidate drops proc's memoized translation if it covers vpage. Callers
// are the remap/unmap sites: evictFrame, SwapFrames, MoveFrame.
func (m *Memory) invalidate(proc int, vpage uint64) {
	if proc >= 0 && proc < len(m.tcache) && m.tcache[proc].vpage == vpage {
		m.tcache[proc].valid = false
	}
}

// Config returns the configuration.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns a snapshot of the paging counters.
func (m *Memory) Stats() Stats { return m.stats }

// ResetStats clears counters without unmapping pages.
func (m *Memory) ResetStats() { m.stats = Stats{} }

// ResidentPages returns the number of mapped frames.
func (m *Memory) ResidentPages() uint64 {
	return m.cfg.Frames - uint64(len(m.freeStacked)+len(m.freeOffchip))
}

// Translate maps a virtual line address of proc to a physical line address,
// faulting the page in if needed. The returned FaultOutcome carries the
// stall the core must absorb; storage traffic is accumulated in Stats.
func (m *Memory) Translate(proc int, vline uint64, isWrite bool) (pline uint64, out FaultOutcome) {
	vpage := vline / LinesPerPage
	offset := vline % LinesPerPage
	tc := &m.tcache[proc]
	if tc.valid && tc.vpage == vpage {
		fr := &m.frames[tc.frame]
		fr.ref = true
		if isWrite {
			fr.dirty = true
		}
		return tc.frame*LinesPerPage + offset, FaultOutcome{}
	}
	if f, ok := m.tables[proc].lookup(vpage).frame(); ok {
		fr := &m.frames[f]
		fr.ref = true
		if isWrite {
			fr.dirty = true
		}
		*tc = transCache{vpage: vpage, frame: f, valid: true}
		return f*LinesPerPage + offset, FaultOutcome{}
	}

	// Page fault. Leaves never move, so e stays valid across allocate,
	// whose eviction may write another page's entry.
	e := m.tables[proc].entry(vpage)
	major := *e == onStorage
	f := m.allocate(proc, vpage)
	fr := &m.frames[f]
	*fr = frameInfo{owner: proc, vpage: vpage, valid: true, ref: true, dirty: isWrite}
	*e = resident(f)
	*tc = transCache{vpage: vpage, frame: f, valid: true}

	out.Fault = true
	if major {
		out.Major = true
		out.StallCycles = m.cfg.MajorFaultCycles
		m.stats.MajorFaults++
		m.stats.BytesFromStorage += PageBytes
	} else {
		out.StallCycles = m.cfg.MinorFaultCycles
		m.stats.MinorFaults++
	}
	m.stats.StallCycles += out.StallCycles
	return f*LinesPerPage + offset, out
}

// allocate returns a frame for (proc, vpage), evicting if necessary.
func (m *Memory) allocate(proc int, vpage uint64) uint64 {
	prefer := m.PreferStacked != nil && m.PreferStacked(proc, vpage)
	if f, ok := m.takeFree(prefer); ok {
		return f
	}
	return m.evict()
}

// takeFree pops a pseudo-random free frame. With no preference the pick is
// uniform over all free frames (the paper's TLM-Static "randomly maps the
// pages across the memory address space"); with a stacked preference the
// stacked pool is tried first.
func (m *Memory) takeFree(preferStacked bool) (uint64, bool) {
	pop := func(pool *[]uint64) (uint64, bool) {
		n := len(*pool)
		if n == 0 {
			return 0, false
		}
		i := m.rng.Intn(n)
		f := (*pool)[i]
		(*pool)[i] = (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return f, true
	}
	if preferStacked {
		if f, ok := pop(&m.freeStacked); ok {
			return f, true
		}
		return pop(&m.freeOffchip)
	}
	ns, no := len(m.freeStacked), len(m.freeOffchip)
	if ns+no == 0 {
		return 0, false
	}
	if m.rng.Intn(ns+no) < ns {
		return pop(&m.freeStacked)
	}
	return pop(&m.freeOffchip)
}

// evict frees a victim frame using the paper's policy: probe ClockProbes
// random frames for an invalid one, then fall back to the CLOCK hand.
func (m *Memory) evict() uint64 {
	for i := 0; i < m.cfg.ClockProbes; i++ {
		f := m.rng.Uint64n(m.cfg.Frames)
		if !m.frames[f].valid {
			return f
		}
	}
	// CLOCK: sweep, clearing reference bits, until an unreferenced valid
	// frame is found.
	for {
		f := m.clockHand
		m.clockHand = (m.clockHand + 1) % m.cfg.Frames
		fr := &m.frames[f]
		if !fr.valid {
			return f
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		m.evictFrame(f)
		return f
	}
}

// evictFrame unmaps the page in frame f, charging storage traffic.
func (m *Memory) evictFrame(f uint64) {
	fr := &m.frames[f]
	m.invalidate(fr.owner, fr.vpage)
	*m.tables[fr.owner].entry(fr.vpage) = onStorage
	m.stats.Evictions++
	if fr.dirty {
		m.stats.DirtyEvicted++
		m.stats.BytesToStorage += PageBytes
	}
	*fr = frameInfo{owner: -1}
}

// TranslateNoFault resolves a virtual line only if its page is resident —
// the path for posted writebacks, which can never fault (a page leaves
// memory together with its dirty lines, so a writeback to a non-resident
// page has already been absorbed by the page-out).
func (m *Memory) TranslateNoFault(proc int, vline uint64, isWrite bool) (pline uint64, ok bool) {
	vpage := vline / LinesPerPage
	tc := &m.tcache[proc]
	if tc.valid && tc.vpage == vpage {
		fr := &m.frames[tc.frame]
		fr.ref = true
		if isWrite {
			fr.dirty = true
		}
		return tc.frame*LinesPerPage + vline%LinesPerPage, true
	}
	f, found := m.tables[proc].lookup(vpage).frame()
	if !found {
		return 0, false
	}
	fr := &m.frames[f]
	fr.ref = true
	if isWrite {
		fr.dirty = true
	}
	*tc = transCache{vpage: vpage, frame: f, valid: true}
	return f*LinesPerPage + vline%LinesPerPage, true
}

// FrameOf reports the frame currently holding (proc, vpage), for tests and
// the TLM migration machinery.
func (m *Memory) FrameOf(proc int, vpage uint64) (uint64, bool) {
	return m.tables[proc].lookup(vpage).frame()
}

// SwapFrames exchanges the contents (ownership, dirty/ref state) of two
// resident frames and patches both page tables. It is the primitive under
// TLM page migration. Panics if either frame is unmapped — migrating a free
// frame is a bookkeeping bug, not a runtime condition.
func (m *Memory) SwapFrames(a, b uint64) {
	if a == b {
		return
	}
	fa, fb := &m.frames[a], &m.frames[b]
	if !fa.valid || !fb.valid {
		panic("vm: SwapFrames on unmapped frame")
	}
	m.invalidate(fa.owner, fa.vpage)
	m.invalidate(fb.owner, fb.vpage)
	*m.tables[fa.owner].entry(fa.vpage) = resident(b)
	*m.tables[fb.owner].entry(fb.vpage) = resident(a)
	*fa, *fb = *fb, *fa
}

// MoveFrame relocates the page in frame src to the free frame dst (used by
// TLM-Freq when promoting a page into an empty stacked frame). Panics if
// src is unmapped or dst is occupied.
func (m *Memory) MoveFrame(src, dst uint64) {
	fs, fd := &m.frames[src], &m.frames[dst]
	if !fs.valid {
		panic("vm: MoveFrame from unmapped frame")
	}
	if fd.valid {
		panic("vm: MoveFrame onto occupied frame")
	}
	m.removeFromFree(dst)
	m.invalidate(fs.owner, fs.vpage)
	*m.tables[fs.owner].entry(fs.vpage) = resident(dst)
	*fd = *fs
	*fs = frameInfo{owner: -1}
	m.addToFree(src)
}

func (m *Memory) removeFromFree(f uint64) {
	pool := &m.freeOffchip
	if f < m.cfg.StackedFrames {
		pool = &m.freeStacked
	}
	for i, v := range *pool {
		if v == f {
			(*pool)[i] = (*pool)[len(*pool)-1]
			*pool = (*pool)[:len(*pool)-1]
			return
		}
	}
	panic("vm: frame not in free list")
}

func (m *Memory) addToFree(f uint64) {
	if f < m.cfg.StackedFrames {
		m.freeStacked = append(m.freeStacked, f)
	} else {
		m.freeOffchip = append(m.freeOffchip, f)
	}
}

// FreeFrames returns the count of free frames in (stacked, off-chip) pools.
func (m *Memory) FreeFrames() (stacked, offchip int) {
	return len(m.freeStacked), len(m.freeOffchip)
}

// IsStackedFrame reports whether frame f lies in the stacked region.
func (m *Memory) IsStackedFrame(f uint64) bool { return f < m.cfg.StackedFrames }

// FrameOwner returns (proc, vpage, ok) for a mapped frame.
func (m *Memory) FrameOwner(f uint64) (proc int, vpage uint64, ok bool) {
	fr := &m.frames[f]
	if !fr.valid {
		return 0, 0, false
	}
	return fr.owner, fr.vpage, true
}
