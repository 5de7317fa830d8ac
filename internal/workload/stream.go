package workload

import (
	"math"

	"cameo/internal/xrand"
)

// Request is one element of a core's L3-miss stream.
type Request struct {
	// Gap is the number of instructions retired since this core's previous
	// demand request. Writeback requests carry Gap 0.
	Gap uint64
	// VLine is the virtual line address (64 B units) within the core's
	// private address space.
	VLine uint64
	// PC identifies the missing instruction; the Line Location Predictor
	// and the Alloy hit predictor index on it.
	PC uint64
	// Write marks posted dirty-writeback traffic, which occupies memory
	// bandwidth but does not stall the core.
	Write bool
}

// LinesPerPageTotal is the number of 64 B lines in a 4 KB page.
const LinesPerPageTotal = 64

// pcZipfBase and pcStreamBase separate the PC ranges of the two access
// components so predictor aliasing between them is incidental, as it would
// be for real code.
const (
	pcZipfBase   = 0x400000
	pcStreamBase = 0x500000
)

// Source is a supply of requests — what a core consumes. The synthetic
// Stream and trace.LoopingSource are infinite; a Replay yields exactly the
// prefix a Recorder captured, which is all a core with the recorded budget
// reads.
type Source interface {
	Next() Request
}

// Stream generates the miss stream of one core running one benchmark.
// Streams are infinite; the caller stops at its instruction budget.
type Stream struct {
	spec   Spec
	rng    *xrand.Rand
	zipf   *xrand.Zipf
	pages  uint64
	perm   []uint32 // zipf rank -> virtual page (scatters the hot set)
	stride int      // line stride between used lines in a page

	gapMean float64

	// burst state: remaining accesses against burstPage
	burstLeft int
	burstPage uint64
	burstIdx  int
	burstPC   uint64
	burstSeq  bool // sequential (stream) bursts walk used lines in order

	// streaming sweep cursor
	streamPage uint64
	streamIdx  int

	// per-page cursors for Zipf visits: successive visits to a page walk
	// its used lines round-robin, the way real code sweeps a structure,
	// instead of sampling lines independently. Dense array — page numbers
	// are < pages, and a byte per page is cheaper than a map on the
	// per-request path.
	pageCursor []uint8

	// history ring feeding writeback addresses
	hist    []uint64
	histPos int

	// pendingWrite holds the writeback queued behind the current demand;
	// a value field, so queueing one does not allocate per request.
	pendingWrite     Request
	havePendingWrite bool
}

// NewStream builds the generator for (spec, core) with footprints divided by
// scale. Base seed plus identifiers make distinct (benchmark, core) streams
// independent and reproducible.
func NewStream(spec Spec, scale uint64, core int, baseSeed uint64) *Stream {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if scale == 0 {
		panic("workload: zero scale")
	}
	perCore := spec.FootprintBytes / scale / 32 // 32-copy rate mode
	pages := perCore / 4096
	if pages < 16 {
		pages = 16
	}
	seed := xrand.DeriveSeed(baseSeed, hashName(spec.Name), uint64(core))
	rng := xrand.New(seed)
	perm := make([]uint32, pages)
	for i := range perm {
		perm[i] = uint32(i)
	}
	permRng := xrand.New(xrand.DeriveSeed(seed, 0xBEEF))
	for i := int(pages) - 1; i > 0; i-- {
		j := permRng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	s := &Stream{
		spec:    spec,
		rng:     rng,
		zipf:    xrand.NewZipf(int(pages), spec.ZipfAlpha),
		pages:   pages,
		perm:    perm,
		stride:  LinesPerPageTotal / spec.LinesPerPage,
		gapMean: 1000 / spec.MPKI,
		hist:    make([]uint64, 64),

		pageCursor: make([]uint8, pages),
	}
	return s
}

func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Spec returns the generating benchmark spec.
func (s *Stream) Spec() Spec { return s.spec }

// Pages returns the per-core footprint in pages.
func (s *Stream) Pages() uint64 { return s.pages }

// lineOf returns the virtual line address for used-line index idx of page.
// Each page's used lines start at a page-specific phase so that sparse
// workloads (milc's 10-of-64 lines) spread over all line offsets rather
// than piling every page's traffic onto the same congruence groups and
// cache sets — real structures are not offset-aligned across pages.
func (s *Stream) lineOf(page uint64, idx int) uint64 {
	phase := pagePhase(page)
	off := (phase + uint64(idx*s.stride)) % LinesPerPageTotal
	return page*LinesPerPageTotal + off
}

// pagePhase is a cheap stable hash of the page number into [0, 64).
func pagePhase(page uint64) uint64 {
	x := page * 0x9e3779b97f4a7c15
	return (x >> 58) & 63
}

// gap draws an exponential inter-miss instruction gap with the MPKI mean.
func (s *Stream) gap() uint64 {
	u := s.rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	g := -math.Log(u) * s.gapMean
	if g < 1 {
		g = 1
	}
	return uint64(g)
}

// zipfPC maps a page-popularity rank to a PC: half-octave buckets (two per
// power of two of rank) so a handful of PCs cover the hot head while colder
// ranks spread over the remaining buckets — mimicking how a few loads
// dominate hot structures while colder structures have their own loads. The
// half-octave resolution keeps each PC's pages at a similar temperature,
// which is what gives the real traces their PC→location correlation.
func (s *Stream) zipfPC(rank int) uint64 {
	bits := 0
	for r := rank; r > 0; r >>= 1 {
		bits++
	}
	bucket := 2 * bits
	// Sub-divide each octave by its second-most-significant bit.
	if bits >= 2 && rank&(1<<(bits-2)) != 0 {
		bucket++
	}
	if bucket >= s.spec.PCBuckets {
		bucket = s.spec.PCBuckets - 1
	}
	return pcZipfBase + uint64(bucket)*16
}

// Next returns the next request in the stream.
func (s *Stream) Next() Request {
	if s.havePendingWrite {
		s.havePendingWrite = false
		return s.pendingWrite
	}
	if s.burstLeft == 0 {
		s.newVisit()
	}

	var idx int
	if s.burstSeq {
		idx = s.burstIdx
		s.burstIdx++
		if s.burstIdx >= s.spec.LinesPerPage {
			s.burstIdx = 0
			s.burstPage = (s.burstPage + 1) % s.pages
			// Propagate the sweep position so the next stream visit
			// continues from here.
			s.streamPage = s.burstPage
			s.streamIdx = s.burstIdx
		} else {
			s.streamIdx = s.burstIdx
		}
	} else {
		cur := s.pageCursor[s.burstPage]
		idx = int(cur)
		s.pageCursor[s.burstPage] = uint8((int(cur) + 1) % s.spec.LinesPerPage)
	}
	s.burstLeft--

	line := s.lineOf(s.burstPage, idx)
	req := Request{Gap: s.gap(), VLine: line, PC: s.burstPC}

	s.hist[s.histPos] = line
	s.histPos = (s.histPos + 1) % len(s.hist)

	if s.rng.Bool(s.spec.WriteFrac) {
		s.pendingWrite = Request{VLine: s.hist[s.rng.Intn(len(s.hist))], PC: req.PC, Write: true}
		s.havePendingWrite = true
	}
	return req
}

// newVisit selects the page the next burst will touch.
func (s *Stream) newVisit() {
	s.burstLeft = s.spec.BurstLen
	if s.rng.Bool(s.spec.StreamFrac) {
		s.burstSeq = true
		s.burstPage = s.streamPage
		s.burstIdx = s.streamIdx
		s.burstPC = pcStreamBase + (s.burstPage/256%4)*16
		return
	}
	s.burstSeq = false
	rank := s.zipf.Sample(s.rng)
	s.burstPage = uint64(s.perm[rank])
	s.burstPC = s.zipfPC(rank)
}

// HotPages returns the n most popular virtual pages in decreasing
// popularity — the oracle knowledge TLM-Oracle is granted.
func (s *Stream) HotPages(n int) []uint64 {
	if n > int(s.pages) {
		n = int(s.pages)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = uint64(s.perm[i])
	}
	return out
}
