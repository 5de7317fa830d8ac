// Package workload synthesizes the L3-miss streams of the paper's SPEC
// CPU2006 rate-mode workloads (Table II). Each benchmark is described by its
// published MPKI and memory footprint plus locality parameters (temporal
// skew, spatial page utilization, burstiness, write fraction) chosen so the
// stream's first-order statistics match the behaviours the paper reports
// (e.g. milc touching ~10 of 64 lines per page, libquantum streaming).
//
// The organizations under study observe only this stream — (instruction gap,
// virtual line, PC, read/write) tuples — so matching its statistics is what
// makes the reproduction exercise the same code paths as the original
// Pin-based traces.
package workload

import "fmt"

// Class buckets benchmarks the way Section III-B does.
type Class int

const (
	// CapacityLimited workloads have footprints larger than the 12 GB
	// baseline memory.
	CapacityLimited Class = iota
	// LatencyLimited workloads fit in memory but have L3 MPKI > 1.
	LatencyLimited
)

func (c Class) String() string {
	switch c {
	case CapacityLimited:
		return "Capacity"
	case LatencyLimited:
		return "Latency"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Spec describes one benchmark in 32-copy rate mode at full (unscaled) size.
type Spec struct {
	Name  string
	Class Class

	// MPKI is L3 misses per thousand instructions, per core (Table II).
	MPKI float64
	// FootprintBytes is the 32-copy aggregate memory footprint (Table II).
	FootprintBytes uint64

	// ZipfAlpha is the temporal skew of page popularity: higher alpha means
	// a smaller hot set absorbs more accesses.
	ZipfAlpha float64
	// StreamFrac is the fraction of page visits that come from a sequential
	// sweep of the footprint rather than the Zipf sampler.
	StreamFrac float64
	// LinesPerPage is how many of the 64 lines in a page the benchmark
	// actually touches (spatial utilization).
	LinesPerPage int
	// BurstLen is the number of consecutive accesses a page visit produces.
	BurstLen int
	// WriteFrac is the fraction of traffic that is dirty-writeback traffic.
	WriteFrac float64
	// PCBuckets is the number of distinct miss-PC values attributed to the
	// Zipf side of the stream (streams get their own PCs).
	PCBuckets int
	// MLP is the maximum outstanding misses one core sustains.
	MLP int
}

// Validate reports a descriptive error for an unusable spec.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: empty name")
	case s.MPKI <= 0:
		return fmt.Errorf("workload %s: MPKI must be positive", s.Name)
	case s.FootprintBytes == 0:
		return fmt.Errorf("workload %s: zero footprint", s.Name)
	case s.ZipfAlpha < 0:
		return fmt.Errorf("workload %s: negative ZipfAlpha", s.Name)
	case s.StreamFrac < 0 || s.StreamFrac > 1:
		return fmt.Errorf("workload %s: StreamFrac out of [0,1]", s.Name)
	case s.LinesPerPage < 1 || s.LinesPerPage > 64:
		return fmt.Errorf("workload %s: LinesPerPage out of [1,64]", s.Name)
	case s.BurstLen < 1:
		return fmt.Errorf("workload %s: BurstLen must be >= 1", s.Name)
	case s.WriteFrac < 0 || s.WriteFrac >= 1:
		return fmt.Errorf("workload %s: WriteFrac out of [0,1)", s.Name)
	case s.PCBuckets < 1:
		return fmt.Errorf("workload %s: PCBuckets must be >= 1", s.Name)
	case s.MLP < 1:
		return fmt.Errorf("workload %s: MLP must be >= 1", s.Name)
	}
	return nil
}

// gib converts gigabytes to bytes, accepting fractional Table II values.
func gib(x float64) uint64 { return uint64(x * (1 << 30)) }

// Specs returns the seventeen Table II benchmarks. MPKI and footprints are
// the paper's; locality parameters are this reproduction's calibrated
// substitutes for the original traces (see DESIGN.md).
func Specs() []Spec {
	return []Spec{
		// ---- Capacity-limited (footprint > 12 GB) ----
		{Name: "mcf", Class: CapacityLimited, MPKI: 39.1, FootprintBytes: gib(52.4),
			ZipfAlpha: 1.40, StreamFrac: 0.15, LinesPerPage: 8, BurstLen: 5, WriteFrac: 0.30, PCBuckets: 32, MLP: 2},
		{Name: "lbm", Class: CapacityLimited, MPKI: 28.9, FootprintBytes: gib(12.8),
			ZipfAlpha: 0.90, StreamFrac: 0.60, LinesPerPage: 64, BurstLen: 16, WriteFrac: 0.45, PCBuckets: 32, MLP: 4},
		{Name: "GemsFDTD", Class: CapacityLimited, MPKI: 19.1, FootprintBytes: gib(25.2),
			ZipfAlpha: 1.30, StreamFrac: 0.40, LinesPerPage: 48, BurstLen: 24, WriteFrac: 0.35, PCBuckets: 32, MLP: 4},
		{Name: "bwaves", Class: CapacityLimited, MPKI: 6.3, FootprintBytes: gib(27.2),
			ZipfAlpha: 1.35, StreamFrac: 0.55, LinesPerPage: 56, BurstLen: 24, WriteFrac: 0.30, PCBuckets: 32, MLP: 4},
		{Name: "cactusADM", Class: CapacityLimited, MPKI: 4.9, FootprintBytes: gib(12.8),
			ZipfAlpha: 1.15, StreamFrac: 0.40, LinesPerPage: 40, BurstLen: 24, WriteFrac: 0.35, PCBuckets: 32, MLP: 2},
		{Name: "zeusmp", Class: CapacityLimited, MPKI: 5.0, FootprintBytes: gib(14.1),
			ZipfAlpha: 1.15, StreamFrac: 0.45, LinesPerPage: 48, BurstLen: 24, WriteFrac: 0.35, PCBuckets: 32, MLP: 2},

		// ---- Latency-limited (footprint < 12 GB, MPKI > 1) ----
		{Name: "gcc", Class: LatencyLimited, MPKI: 63.1, FootprintBytes: gib(2.8),
			ZipfAlpha: 1.35, StreamFrac: 0.20, LinesPerPage: 24, BurstLen: 6, WriteFrac: 0.30, PCBuckets: 32, MLP: 2},
		{Name: "milc", Class: LatencyLimited, MPKI: 31.9, FootprintBytes: gib(11.2),
			// The paper singles milc out for poor spatial locality: ~10 of
			// 64 lines per page used, which is what punishes TLM-Dynamic.
			ZipfAlpha: 1.20, StreamFrac: 0.35, LinesPerPage: 10, BurstLen: 6, WriteFrac: 0.35, PCBuckets: 32, MLP: 2},
		{Name: "soplex", Class: LatencyLimited, MPKI: 28.9, FootprintBytes: gib(7.6),
			ZipfAlpha: 1.25, StreamFrac: 0.30, LinesPerPage: 24, BurstLen: 6, WriteFrac: 0.25, PCBuckets: 32, MLP: 2},
		{Name: "libquantum", Class: LatencyLimited, MPKI: 25.4, FootprintBytes: gib(1.0),
			// Pure streaming over a ~1 GB vector.
			ZipfAlpha: 0.30, StreamFrac: 0.90, LinesPerPage: 64, BurstLen: 32, WriteFrac: 0.25, PCBuckets: 32, MLP: 4},
		{Name: "xalancbmk", Class: LatencyLimited, MPKI: 23.7, FootprintBytes: gib(4.4),
			ZipfAlpha: 1.35, StreamFrac: 0.15, LinesPerPage: 16, BurstLen: 5, WriteFrac: 0.20, PCBuckets: 32, MLP: 2},
		{Name: "omnetpp", Class: LatencyLimited, MPKI: 20.5, FootprintBytes: gib(4.8),
			ZipfAlpha: 1.30, StreamFrac: 0.15, LinesPerPage: 16, BurstLen: 5, WriteFrac: 0.30, PCBuckets: 32, MLP: 2},
		{Name: "leslie3d", Class: LatencyLimited, MPKI: 15.8, FootprintBytes: gib(2.4),
			ZipfAlpha: 1.05, StreamFrac: 0.50, LinesPerPage: 48, BurstLen: 8, WriteFrac: 0.35, PCBuckets: 32, MLP: 4},
		{Name: "sphinx3", Class: LatencyLimited, MPKI: 13.5, FootprintBytes: gib(0.60),
			ZipfAlpha: 1.20, StreamFrac: 0.30, LinesPerPage: 32, BurstLen: 6, WriteFrac: 0.10, PCBuckets: 32, MLP: 2},
		{Name: "bzip2", Class: LatencyLimited, MPKI: 3.48, FootprintBytes: gib(1.1),
			ZipfAlpha: 1.15, StreamFrac: 0.35, LinesPerPage: 40, BurstLen: 6, WriteFrac: 0.30, PCBuckets: 32, MLP: 2},
		{Name: "dealII", Class: LatencyLimited, MPKI: 2.33, FootprintBytes: gib(0.88),
			ZipfAlpha: 1.25, StreamFrac: 0.25, LinesPerPage: 32, BurstLen: 6, WriteFrac: 0.25, PCBuckets: 32, MLP: 2},
		{Name: "astar", Class: LatencyLimited, MPKI: 1.81, FootprintBytes: gib(0.12),
			ZipfAlpha: 1.25, StreamFrac: 0.15, LinesPerPage: 16, BurstLen: 5, WriteFrac: 0.25, PCBuckets: 32, MLP: 2},
	}
}

// specsByName indexes AllSpecs once, so lookups allocate nothing.
var specsByName = func() map[string]Spec {
	all := AllSpecs()
	m := make(map[string]Spec, len(all))
	for _, s := range all {
		m[s.Name] = s
	}
	return m
}()

// SpecByName looks a benchmark up by name, covering both Table II and the
// microbenchmark probes.
func SpecByName(name string) (Spec, bool) {
	s, ok := specsByName[name]
	return s, ok
}

// ByClass filters the spec list.
func ByClass(c Class) []Spec {
	var out []Spec
	for _, s := range Specs() {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}
