package dram

// Module is one DRAM module with live bank/channel state. It is timed
// analytically: a request arriving at cycle t is scheduled against the
// target bank's and channel's busy-until times, so queueing delay emerges
// from contention without a per-request event list.
//
// Module is not safe for concurrent use. Calls need not come in time order:
// an organization may pass a probe's completion as at (CAMEO's serial
// off-chip fetch, Alloy's miss path), so a call can carry an earlier at than
// the call before it. Each call is timed against the busy-until state the
// earlier calls left, so a bank serves requests in call order.
type Module struct {
	cfg Config
	dec Decoder

	tCAS uint64 // CPU cycles
	tRCD uint64
	tRP  uint64
	tRAS uint64

	banks []bankState // [channel*Banks + bank]
	buses []uint64    // per-channel data bus busy-until

	refPeriod uint64 // CPU cycles between refreshes, 0 = disabled
	refDur    uint64 // CPU cycles a refresh blocks the module

	// write-buffering mode
	writeBuf    bool
	drainThresh int
	writeCycles uint64 // service time of one drained write

	stats Stats
}

type bankState struct {
	openRow   uint64
	hasOpen   bool
	busyUntil uint64
	lastAct   uint64 // time of last ACTIVATE, for the tRAS constraint
	// wq is the number of buffered writes awaiting drain (write-buffering
	// mode only); their bytes were accounted at enqueue.
	wq int
}

// Stats aggregates module activity counters.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	RowHits      uint64
	RowMisses    uint64
	// TotalReadLatency sums (completion - arrival) over reads, for
	// average-latency reporting.
	TotalReadLatency uint64
	// RefreshStalls counts accesses delayed by an in-progress refresh.
	RefreshStalls uint64
	// With write buffering: writes hidden in bank idle time, and reads
	// that had to wait for a forced queue drain.
	HiddenWrites uint64
	ForcedDrains uint64
}

// Add folds other into s — the deterministic reduction merging per-lane
// device counters in the group-sharded execution mode (all fields sum, so
// the merge is independent of lane order).
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.TotalReadLatency += o.TotalReadLatency
	s.RefreshStalls += o.RefreshStalls
	s.HiddenWrites += o.HiddenWrites
	s.ForcedDrains += o.ForcedDrains
}

// Bytes returns total bytes moved in either direction.
func (s Stats) Bytes() uint64 { return s.BytesRead + s.BytesWritten }

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// AvgReadLatency returns the mean read latency in CPU cycles, or 0 when no
// reads occurred.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.Reads)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// NewModule builds a module from cfg. It panics on an invalid configuration
// — the convenience path for static program data (examples, tables). Code
// handling runtime-supplied configurations should use New, whose error
// surfaces as a per-cell job failure instead of a crash.
func NewModule(cfg Config) *Module {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// New builds a module from cfg, reporting a descriptive error for an
// invalid configuration.
func New(cfg Config) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cpb := cfg.CPUPerBus()
	m := &Module{
		cfg:   cfg,
		dec:   cfg.Decoder(),
		tCAS:  uint64(cfg.TCAS) * cpb,
		tRCD:  uint64(cfg.TRCD) * cpb,
		tRP:   uint64(cfg.TRP) * cpb,
		tRAS:  uint64(cfg.TRAS) * cpb,
		banks: make([]bankState, cfg.Channels*cfg.Banks),
		buses: make([]uint64, cfg.Channels),
	}
	if cfg.RefreshEnabled {
		m.refPeriod = uint64(cfg.TREFI) * cpb
		m.refDur = uint64(cfg.TRFC) * cpb
	}
	if cfg.WriteBuffering {
		m.writeBuf = true
		m.drainThresh = cfg.WriteDrainThreshold
		// Drains batch against open rows: CAS plus the line transfer.
		m.writeCycles = m.tCAS + m.dec.TransferCycles(LineBytes)
	}
	return m, nil
}

// Config returns the module's configuration.
func (m *Module) Config() Config { return m.cfg }

// Stats returns a snapshot of the activity counters.
func (m *Module) Stats() Stats { return m.stats }

// ResetStats zeroes the activity counters without touching timing state.
func (m *Module) ResetStats() { m.stats = Stats{} }

// Access times one request of `bytes` bytes to line address `line` arriving
// at cycle `at`, updates bank/bus state and statistics, and returns the
// completion cycle. Writes are timed like reads (they occupy the bank and
// bus identically, which is what matters for contention); callers treat
// writes as posted and typically do not stall on the returned time.
func (m *Module) Access(at uint64, line uint64, bytes int, isWrite bool) uint64 {
	if bytes < 0 {
		// Panic-free hot path: a non-positive size is a caller bug (every
		// organization issues LineBytes/LEADBytes constants); clamp it to a
		// zero-byte control access costing one beat so a bad cell stays
		// inside the per-cell failure domain instead of crashing the sweep.
		bytes = 0
	}
	ch, b, row := m.dec.Decode(line)
	bank := &m.banks[b]

	if m.writeBuf && isWrite {
		// Park the write; it drains in idle time or on a forced drain.
		bank.wq++
		m.stats.Writes++
		m.stats.BytesWritten += uint64(bytes)
		return at + m.writeCycles // nominal, callers treat writes as posted
	}

	start := at
	if bank.busyUntil > start {
		start = bank.busyUntil
	}
	if m.writeBuf && bank.wq > 0 {
		// Writes that fit the bank's idle gap drained for free.
		if at > bank.busyUntil {
			hidden := int((at - bank.busyUntil) / m.writeCycles)
			if hidden > bank.wq {
				hidden = bank.wq
			}
			bank.wq -= hidden
			m.stats.HiddenWrites += uint64(hidden)
		}
		// A full queue forces a drain ahead of this read.
		if bank.wq >= m.drainThresh {
			start += uint64(bank.wq) * m.writeCycles
			bank.wq = 0
			m.stats.ForcedDrains++
		}
	}
	if m.refPeriod > 0 {
		// All-bank refresh: accesses landing inside a refresh window wait
		// for it to complete.
		if phase := start % m.refPeriod; phase < m.refDur {
			start += m.refDur - phase
			m.stats.RefreshStalls++
		}
	}

	var ready uint64
	switch {
	case m.cfg.ClosedPage:
		// Closed page: the bank auto-precharged after the last access, so
		// every access is activate + CAS with no conflict case.
		m.stats.RowMisses++
		bank.lastAct = start
		ready = start + m.tRCD + m.tCAS
	case bank.hasOpen && bank.openRow == row:
		m.stats.RowHits++
		ready = start + m.tCAS
	case !bank.hasOpen:
		m.stats.RowMisses++
		bank.lastAct = start
		ready = start + m.tRCD + m.tCAS
	default:
		// Row conflict: precharge (no earlier than tRAS after the previous
		// activate), then activate, then CAS.
		m.stats.RowMisses++
		preStart := start
		if earliest := bank.lastAct + m.tRAS; earliest > preStart {
			preStart = earliest
		}
		actStart := preStart + m.tRP
		bank.lastAct = actStart
		ready = actStart + m.tRCD + m.tCAS
	}
	bank.hasOpen = !m.cfg.ClosedPage
	bank.openRow = row

	dataStart := ready
	if m.buses[ch] > dataStart {
		dataStart = m.buses[ch]
	}
	done := dataStart + m.dec.TransferCycles(bytes)
	m.buses[ch] = done
	bank.busyUntil = done

	if isWrite {
		m.stats.Writes++
		m.stats.BytesWritten += uint64(bytes)
	} else {
		m.stats.Reads++
		m.stats.BytesRead += uint64(bytes)
		m.stats.TotalReadLatency += done - at
	}
	return done
}

// UnloadedReadLatency returns the latency in CPU cycles of a single 64 B
// read hitting a precharged (closed-row) bank with idle buses — a
// characterization helper used in tests and the Fig 8 analytic model.
func (m *Module) UnloadedReadLatency() uint64 {
	return m.tRCD + m.tCAS + m.dec.TransferCycles(LineBytes)
}

// Device is the timing interface the memory organizations program against.
// Module (the analytic busy-until model) implements it, as does the queued
// FR-FCFS controller in package memctrl — organizations are agnostic to
// which engine times their accesses.
type Device interface {
	// Access times one request and returns its completion cycle.
	Access(at uint64, line uint64, bytes int, isWrite bool) uint64
	// Stats returns the activity counters.
	Stats() Stats
	// ResetStats zeroes counters without touching timing state.
	ResetStats()
	// Config returns the device geometry and timing parameters.
	Config() Config
}

var _ Device = (*Module)(nil)
