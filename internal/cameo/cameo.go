package cameo

import (
	"fmt"

	"cameo/internal/dram"
	"cameo/internal/memsys"
)

// LLTKind selects the Line Location Table design (Section IV).
type LLTKind int

const (
	// CoLocatedLLT appends the table entry to the data line (LEAD): stacked
	// residents need a single access, off-chip residents serialize behind
	// the probe unless the predictor overlaps them. It is the paper's final
	// design, and deliberately the zero value.
	CoLocatedLLT LLTKind = iota
	// EmbeddedLLT reserves a region of stacked DRAM for the table; every
	// access pays a stacked-DRAM lookup before the data access.
	EmbeddedLLT
	// IdealLLT knows every line's location with zero storage or latency —
	// the theoretical upper bound.
	IdealLLT
)

func (k LLTKind) String() string {
	switch k {
	case IdealLLT:
		return "Ideal-LLT"
	case EmbeddedLLT:
		return "Embedded-LLT"
	case CoLocatedLLT:
		return "CoLocated-LLT"
	}
	return "LLTKind?"
}

// Config parameterizes the organization.
type Config struct {
	// Groups is the number of congruence groups = OS-visible stacked lines.
	Groups uint64
	// Segments is the group associativity (1 stacked + Segments-1 off-chip
	// lines); 4 in the paper's 4 GB + 12 GB configuration.
	Segments int
	// LLT selects the table design; Pred the prediction scheme (Pred is
	// only meaningful for CoLocatedLLT, where the probe/serialization
	// trade-off exists).
	LLT  LLTKind
	Pred PredKind
	// Cores sizes the per-core predictor array; LLPEntries its table size.
	Cores      int
	LLPEntries int

	// LLTCacheEntries, when nonzero, gives the Embedded-LLT design a small
	// SRAM cache of recently used table entries (direct-mapped, one group
	// per entry): hits skip the in-DRAM table read — the fix follow-on
	// designs adopted for table-indirection latency. Ignored by the other
	// LLT kinds (Ideal needs none; Co-Located carries the entry with the
	// data).
	LLTCacheEntries int

	// HotSwapThreshold, when nonzero, enables the Section VI-D extension: a
	// page-granularity access-frequency filter gates swapping, so lines
	// from cold (streamed-once) pages are serviced in place instead of
	// displacing hot stacked residents. HotFilterEpoch is the filter's
	// aging period in accesses (0 selects the default).
	HotSwapThreshold uint32
	HotFilterEpoch   uint64
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Groups == 0:
		return fmt.Errorf("cameo: zero groups")
	case c.Segments < 2 || c.Segments > MaxSegments:
		return fmt.Errorf("cameo: segments %d out of [2,%d]", c.Segments, MaxSegments)
	case c.Cores <= 0:
		return fmt.Errorf("cameo: non-positive cores")
	case c.LLPEntries <= 0 || c.LLPEntries&(c.LLPEntries-1) != 0:
		return fmt.Errorf("cameo: LLPEntries %d not a positive power of two", c.LLPEntries)
	}
	return nil
}

// Stats counts organization-level events.
type Stats struct {
	StackedHits uint64 // demands serviced by stacked DRAM
	OffChipHits uint64 // demands serviced by off-chip DRAM
	Swaps       uint64 // line swaps performed
	// SuppressedSwaps counts off-chip hits the hot filter served in place.
	SuppressedSwaps uint64
	Writebacks      uint64
	WastedReads     uint64 // mispredicted parallel off-chip fetches
	// LLTCacheHits / LLTCacheMisses count the Embedded design's SRAM
	// entry-cache outcomes (zero unless LLTCacheEntries is configured).
	LLTCacheHits   uint64
	LLTCacheMisses uint64
	// LLTProbes counts line-location lookups that touched stacked DRAM:
	// LEAD probes for the Co-Located design, in-DRAM table reads for the
	// Embedded design (entry-cache hits are free), zero for Ideal — the
	// table-indirection traffic Sections IV-V trade against.
	LLTProbes uint64
	Cases     CaseStats
}

// StackedServiceRate returns the fraction of demands serviced from stacked.
func (s Stats) StackedServiceRate() float64 {
	t := s.StackedHits + s.OffChipHits
	if t == 0 {
		return 0
	}
	return float64(s.StackedHits) / float64(t)
}

// System is the CAMEO organization. It implements memsys.Organization.
type System struct {
	cfg     Config
	stacked dram.Device
	off     dram.Device
	llt     *Table
	pred    *Predictor
	hot     *HotFilter // nil unless the Section VI-D extension is enabled

	// SRAM cache over LLT entries for EmbeddedLLT: lltCache[i] holds the
	// group whose entry is cached in slot i, or ^0 when empty.
	lltCache []uint64

	// Hot-path precomputations (DESIGN.md §Performance): the visible line
	// count, the stacked data-access footprint, and — when Groups is a power
	// of two — mask/shift decomposition replacing the per-access divide.
	visible     uint64
	stkBytes    int
	groupMask   uint64
	groupShift  uint
	groupsPow2  bool
	embeddedOff uint64 // EmbeddedLLTLines(Groups), 0 for other layouts

	stats Stats
}

var _ memsys.Organization = (*System)(nil)

// New builds a CAMEO system over the two DRAM modules, panicking on an
// unusable configuration — the convenience path for static program data
// (examples, canned tables). Code handling runtime-supplied configurations
// should use NewSystem, whose error surfaces as a per-cell job failure
// instead of a crash.
func New(cfg Config, stacked, off dram.Device) *System {
	s, err := NewSystem(cfg, stacked, off)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystem builds a CAMEO system over the two DRAM modules, reporting a
// descriptive error when the configuration is invalid or the stacked module
// cannot hold Groups visible lines under the chosen LLT layout.
func NewSystem(cfg Config, stacked, off dram.Device) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stacked == nil || off == nil {
		return nil, fmt.Errorf("cameo: nil DRAM module")
	}
	devLines := stacked.Config().CapacityBytes / dram.LineBytes
	switch cfg.LLT {
	case CoLocatedLLT:
		if VisibleStackedLines(devLines) < cfg.Groups {
			return nil, fmt.Errorf("cameo: device %d lines cannot hold %d LEADs", devLines, cfg.Groups)
		}
	case EmbeddedLLT:
		if devLines < cfg.Groups+EmbeddedLLTLines(cfg.Groups) {
			return nil, fmt.Errorf("cameo: device %d lines cannot hold %d lines plus embedded LLT", devLines, cfg.Groups)
		}
	default:
		if devLines < cfg.Groups {
			return nil, fmt.Errorf("cameo: device %d lines smaller than %d groups", devLines, cfg.Groups)
		}
	}
	offLines := off.Config().CapacityBytes / dram.LineBytes
	if need := cfg.Groups * uint64(cfg.Segments-1); offLines < need {
		return nil, fmt.Errorf("cameo: off-chip %d lines smaller than %d", offLines, need)
	}
	if cfg.LLTCacheEntries > 0 && cfg.LLT == EmbeddedLLT &&
		cfg.LLTCacheEntries&(cfg.LLTCacheEntries-1) != 0 {
		return nil, fmt.Errorf("cameo: LLTCacheEntries %d not a power of two", cfg.LLTCacheEntries)
	}
	sys := &System{
		cfg:     cfg,
		stacked: stacked,
		off:     off,
		llt:     NewTable(cfg.Groups, cfg.Segments),
		pred:    NewPredictor(cfg.Cores, cfg.LLPEntries),
		visible: cfg.Groups * uint64(cfg.Segments),
	}
	sys.stkBytes = dram.LineBytes
	if cfg.LLT == CoLocatedLLT {
		sys.stkBytes = LEADBytes
	}
	if cfg.LLT == EmbeddedLLT {
		sys.embeddedOff = EmbeddedLLTLines(cfg.Groups)
	}
	if cfg.Groups&(cfg.Groups-1) == 0 {
		sys.groupsPow2 = true
		sys.groupMask = cfg.Groups - 1
		for g := cfg.Groups; g > 1; g >>= 1 {
			sys.groupShift++
		}
	}
	if cfg.HotSwapThreshold > 0 {
		sys.hot = NewHotFilter(cfg.HotSwapThreshold, cfg.HotFilterEpoch)
	}
	if cfg.LLTCacheEntries > 0 && cfg.LLT == EmbeddedLLT {
		sys.lltCache = make([]uint64, cfg.LLTCacheEntries)
		for i := range sys.lltCache {
			sys.lltCache[i] = ^uint64(0)
		}
	}
	return sys, nil
}

// Name implements memsys.Organization.
func (s *System) Name() string {
	if s.cfg.LLT == CoLocatedLLT {
		return fmt.Sprintf("CAMEO(%s,%s)", s.cfg.LLT, s.cfg.Pred)
	}
	return fmt.Sprintf("CAMEO(%s)", s.cfg.LLT)
}

// VisibleLines implements memsys.Organization: the full combined capacity.
func (s *System) VisibleLines() uint64 { return s.visible }

// StackedStats implements memsys.Organization.
func (s *System) StackedStats() dram.Stats { return s.stacked.Stats() }

// OffChipStats implements memsys.Organization.
func (s *System) OffChipStats() dram.Stats { return s.off.Stats() }

// Stats returns organization counters.
func (s *System) Stats() Stats { return s.stats }

// ResetStats implements memsys.Organization: clears event and module
// counters; the LLT, predictor, and hot-filter state stay warm.
func (s *System) ResetStats() {
	s.stats = Stats{}
	s.stacked.ResetStats()
	s.off.ResetStats()
}

// LLT exposes the table for tests and invariant checks.
func (s *System) LLT() *Table { return s.llt }

// split decomposes a requested line address. Power-of-two group counts
// resolve with mask/shift; otherwise the quotient is recovered by bounded
// subtraction — line < Groups*Segments and Segments <= MaxSegments, so at
// most three subtractions replace the 20+-cycle hardware divide on the
// per-access path.
func (s *System) split(line uint64) (g uint64, seg int) {
	if s.groupsPow2 {
		return line & s.groupMask, int(line >> s.groupShift)
	}
	for line >= s.cfg.Groups {
		line -= s.cfg.Groups
		seg++
	}
	return line, seg
}

// offLocal returns the off-chip module-local line address of slot (1..) of
// group g.
func (s *System) offLocal(slot int, g uint64) uint64 {
	return uint64(slot-1)*s.cfg.Groups + g
}

// stackedDataLine returns the device line for group g's stacked slot under
// the configured layout. The embedded layout's table-region offset is
// precomputed at construction.
func (s *System) stackedDataLine(g uint64) uint64 {
	switch s.cfg.LLT {
	case CoLocatedLLT:
		return LeadDeviceLine(g)
	case EmbeddedLLT:
		return s.embeddedOff + g
	default:
		return g
	}
}

// stackedBytes is the bus footprint of a stacked data access.
func (s *System) stackedBytes() int { return s.stkBytes }

// Access implements memsys.Organization.
func (s *System) Access(at uint64, req memsys.Request) uint64 {
	if req.PLine >= s.visible {
		panic(fmt.Sprintf("cameo: line %d beyond visible space %d", req.PLine, s.visible))
	}
	g, seg := s.split(req.PLine)
	slot := s.llt.SlotOf(g, seg)

	if req.Write {
		return s.writeback(at, g, slot)
	}
	allowSwap := true
	if s.hot != nil {
		allowSwap = s.hot.Observe(req.PLine)
	}
	switch s.cfg.LLT {
	case IdealLLT:
		return s.accessIdeal(at, g, seg, slot, allowSwap)
	case EmbeddedLLT:
		return s.accessEmbedded(at, g, seg, slot, allowSwap)
	default:
		return s.accessCoLocated(at, req, g, seg, slot, allowSwap)
	}
}

// accessIdeal: location known for free.
func (s *System) accessIdeal(at uint64, g uint64, seg, slot int, allowSwap bool) uint64 {
	if slot == 0 {
		s.stats.StackedHits++
		return s.stacked.Access(at, s.stackedDataLine(g), dram.LineBytes, false)
	}
	s.stats.OffChipHits++
	c := s.off.Access(at, s.offLocal(slot, g), dram.LineBytes, false)
	s.maybeSwap(at, g, seg, slot, false, allowSwap)
	return c
}

// lltLookup resolves group g's entry for the Embedded design: an SRAM
// entry-cache hit is free; otherwise the in-DRAM table is read (and the
// entry installed). Returns the cycle at which the entry is known.
func (s *System) lltLookup(at uint64, g uint64) uint64 {
	if s.lltCache != nil {
		idx := g & uint64(len(s.lltCache)-1)
		if s.lltCache[idx] == g {
			s.stats.LLTCacheHits++
			return at
		}
		s.stats.LLTCacheMisses++
		s.lltCache[idx] = g
	}
	s.stats.LLTProbes++
	return s.stacked.Access(at, EmbeddedLLTLine(g), dram.LineBytes, false)
}

// accessEmbedded: serial LLT lookup in stacked DRAM, then the data access.
func (s *System) accessEmbedded(at uint64, g uint64, seg, slot int, allowSwap bool) uint64 {
	tLLT := s.lltLookup(at, g)
	if slot == 0 {
		s.stats.StackedHits++
		return s.stacked.Access(tLLT, s.stackedDataLine(g), dram.LineBytes, false)
	}
	s.stats.OffChipHits++
	c := s.off.Access(tLLT, s.offLocal(slot, g), dram.LineBytes, false)
	if s.maybeSwap(tLLT, g, seg, slot, false, allowSwap) {
		// The embedded table entry itself is rewritten.
		s.stacked.Access(tLLT, EmbeddedLLTLine(g), dram.LineBytes, true)
	}
	return c
}

// accessCoLocated: one LEAD probe answers stacked residents; off-chip
// residents serialize unless the predictor overlapped them.
func (s *System) accessCoLocated(at uint64, req memsys.Request, g uint64, seg, slot int, allowSwap bool) uint64 {
	pred := s.predict(req, slot)
	s.stats.LLTProbes++
	probe := s.stacked.Access(at, s.stackedDataLine(g), LEADBytes, false)

	if slot == 0 {
		s.stats.StackedHits++
		if pred != 0 {
			// Case 2: wasted parallel off-chip fetch.
			s.off.Access(at, s.offLocal(pred, g), dram.LineBytes, false)
			s.stats.WastedReads++
			s.stats.Cases.StackedPredOff++
		} else {
			s.stats.Cases.StackedPredStacked++
		}
		s.update(req, slot)
		return probe
	}

	s.stats.OffChipHits++
	var c uint64
	switch {
	case pred == slot:
		// Case 4: overlapped and correct; the LEAD probe verifies it.
		off := s.off.Access(at, s.offLocal(slot, g), dram.LineBytes, false)
		if probe > off {
			c = probe
		} else {
			c = off
		}
		s.stats.Cases.OffPredCorrect++
	case pred == 0:
		// Case 3: serialized behind the probe.
		c = s.off.Access(probe, s.offLocal(slot, g), dram.LineBytes, false)
		s.stats.Cases.OffPredStacked++
	default:
		// Case 5: wasted fetch plus serialization.
		s.off.Access(at, s.offLocal(pred, g), dram.LineBytes, false)
		s.stats.WastedReads++
		c = s.off.Access(probe, s.offLocal(slot, g), dram.LineBytes, false)
		s.stats.Cases.OffPredWrongOff++
	}
	s.update(req, slot)
	s.maybeSwap(at, g, seg, slot, true, allowSwap)
	return c
}

// predict returns the slot guess for this request under the configured
// scheme. For Perfect it is the actual slot.
func (s *System) predict(req memsys.Request, actual int) int {
	switch s.cfg.Pred {
	case LLP:
		p := s.pred.Predict(req.Core, req.PC)
		if p >= s.cfg.Segments {
			p = 0
		}
		return p
	case Perfect:
		return actual
	default: // SAM
		return 0
	}
}

// update trains the predictor with the slot the LLT provided.
func (s *System) update(req memsys.Request, actual int) {
	if s.cfg.Pred == LLP {
		s.pred.Update(req.Core, req.PC, actual)
	}
}

// maybeSwap performs the swap unless the hot filter suppressed it, and
// reports whether the swap happened.
func (s *System) maybeSwap(at uint64, g uint64, seg, slot int, victimInProbe, allow bool) bool {
	if !allow {
		s.stats.SuppressedSwaps++
		return false
	}
	s.swap(at, g, seg, slot, victimInProbe)
	return true
}

// swap upgrades the line at (g, slot) into the stacked slot, demoting the
// current stacked resident to the vacated off-chip location. The demand fill
// is already on the critical path; the installs ride the writeback/fill
// queues. They are timed at the demand's issue cycle `at` rather than its
// completion: posting them at completion would stamp bank busy-until state
// into the future and unfairly delay other cores' earlier requests (the
// analytic DRAM model needs near-monotone timestamps).
//
// victimInProbe is true when the stacked resident's data already arrived
// with the LEAD probe (Co-Located layout), saving the victim read.
func (s *System) swap(at uint64, g uint64, seg, slot int, victimInProbe bool) {
	victimSeg := s.llt.SegAt(g, 0)
	if !victimInProbe {
		s.stacked.Access(at, s.stackedDataLine(g), dram.LineBytes, false)
	}
	// Install the requested line (and, for LEAD, the updated table entry)
	// into stacked; write the victim to the vacated off-chip slot.
	s.stacked.Access(at, s.stackedDataLine(g), s.stackedBytes(), true)
	s.off.Access(at, s.offLocal(slot, g), dram.LineBytes, true)
	s.llt.Swap(g, seg, victimSeg)
	s.stats.Swaps++
}

// writeback services posted dirty traffic from the L3 in place (no swap):
// the location must still be resolved through the configured LLT.
func (s *System) writeback(at uint64, g uint64, slot int) uint64 {
	s.stats.Writebacks++
	switch s.cfg.LLT {
	case IdealLLT:
		if slot == 0 {
			return s.stacked.Access(at, s.stackedDataLine(g), dram.LineBytes, true)
		}
		return s.off.Access(at, s.offLocal(slot, g), dram.LineBytes, true)
	case EmbeddedLLT:
		tLLT := s.lltLookup(at, g)
		if slot == 0 {
			return s.stacked.Access(tLLT, s.stackedDataLine(g), dram.LineBytes, true)
		}
		return s.off.Access(tLLT, s.offLocal(slot, g), dram.LineBytes, true)
	default:
		s.stats.LLTProbes++
		probe := s.stacked.Access(at, s.stackedDataLine(g), LEADBytes, false)
		if slot == 0 {
			return s.stacked.Access(probe, s.stackedDataLine(g), LEADBytes, true)
		}
		return s.off.Access(probe, s.offLocal(slot, g), dram.LineBytes, true)
	}
}

// LLTCacheHitRate reports the Embedded entry-cache hit rate.
func (s Stats) LLTCacheHitRate() float64 {
	t := s.LLTCacheHits + s.LLTCacheMisses
	if t == 0 {
		return 0
	}
	return float64(s.LLTCacheHits) / float64(t)
}
