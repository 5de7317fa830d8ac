package system

import (
	"context"
	"fmt"
	"strings"

	"cameo/internal/alloy"
	"cameo/internal/cache"
	"cameo/internal/cameo"
	"cameo/internal/cpu"
	"cameo/internal/dram"
	"cameo/internal/lohhill"
	"cameo/internal/memctrl"
	"cameo/internal/memorg"
	"cameo/internal/memsys"
	"cameo/internal/metrics"
	"cameo/internal/sim"
	"cameo/internal/stats"
	"cameo/internal/tlb"
	"cameo/internal/tlm"
	"cameo/internal/vm"
	"cameo/internal/workload"
)

// Result is the outcome of one (benchmark, organization) run.
type Result struct {
	Org       string
	Benchmark string
	Class     workload.Class

	Cores        int
	Instructions uint64
	// Cycles is the execution time: the paper measures when every copy of
	// the rate-mode workload has finished.
	Cycles uint64

	Demands       uint64
	Writebacks    uint64
	AvgMemLatency float64

	// WarmupEndCycle is the cycle at which measurement began (0 when no
	// warm-up was configured); Cycles then covers the measured region only.
	WarmupEndCycle uint64

	// Demand-latency distribution digests (log2-bucket upper bounds) and
	// the full histogram for detailed reporting.
	LatencyP50 uint64
	LatencyP95 uint64
	LatencyP99 uint64
	Latency    *stats.Hist `json:"-"`

	Stacked dram.Stats
	OffChip dram.Stats
	VM      vm.Stats

	// Organization-specific detail, present when applicable.
	Cameo      *cameo.Stats
	Alloy      *alloy.Stats
	LohHill    *lohhill.Stats
	Migrations *tlm.MigrationStats
	// L3 holds the shared-cache counters when Config.UseL3 was set.
	L3 *cache.Stats

	DroppedWritebacks uint64

	// Metrics is the hierarchical registry snapshot for the run: every
	// module's counters under names like "cameo/llt/probes" or
	// "dram/stacked/row_hits", name-sorted and byte-diffable.
	Metrics metrics.Snapshot `json:",omitempty"`
}

// StorageBytes is the storage traffic (page-ins plus dirty page-outs).
func (r Result) StorageBytes() uint64 { return r.VM.StorageBytes() }

// IPC returns aggregate retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// machine is a fully wired simulated system.
type machine struct {
	cfg     Config
	eng     *sim.Engine
	vmm     *vm.Memory
	org     memsys.Organization
	l3      *cache.L3
	tlbs    []*tlb.TLB
	cores   []*cpu.Core
	dropped uint64
	lat     stats.Hist

	warmCores int
	warmEnd   uint64 // cycle at which the last core finished warm-up
}

// geometry computes the OS-visible line space and the stacked/off split for
// the configured organization, as declared by its registry descriptor.
func geometry(cfg Config) (visibleLines, stackedLines uint64) {
	d, ok := memorg.ByKind(int(cfg.Org))
	if !ok {
		return 0, 0 // Validate rejects unknown kinds before geometry matters
	}
	return d.Geometry(cfg.buildEnv())
}

// newMachine wires up the system; core i runs mix[i mod len(mix)] (rate
// mode passes one spec). The cores replay rec when it is non-nil and
// generate their streams live otherwise. Invalid specs or configurations
// are reported as errors, so a bad sweep cell fails that cell rather than
// the whole process.
func newMachine(mix []workload.Spec, cfg Config, rec *Recording) (*machine, error) {
	if err := validate(mix, cfg); err != nil {
		return nil, err
	}
	desc, ok := memorg.ByKind(int(cfg.Org))
	if !ok {
		return nil, fmt.Errorf("system: unknown organization %v", cfg.Org)
	}
	if rec != nil {
		if key := StreamKey(mix, cfg); rec.key != key {
			return nil, fmt.Errorf("system: recording of streams %q replayed for %q", rec.key, key)
		}
	}
	m := &machine{cfg: cfg, eng: sim.NewEngine()}

	visibleLines, stackedLines := geometry(cfg)
	vmCfg := vm.DefaultConfig(visibleLines/vm.LinesPerPage, stackedLines/vm.LinesPerPage)
	vmCfg.Seed = cfg.Seed
	m.vmm = vm.New(vmCfg, cfg.Cores)

	// A replayed run builds streams only for the oracle's hot-page list.
	var streams []*workload.Stream
	if rec == nil || desc.OracleHotPages {
		for core := 0; core < cfg.Cores; core++ {
			streams = append(streams, workload.NewStream(mix[core%len(mix)], cfg.ScaleDiv, core, cfg.Seed))
		}
	}

	org, err := buildOrg(desc, cfg, m.vmm, visibleLines, stackedLines)
	if err != nil {
		return nil, fmt.Errorf("system: building %s: %w", cfg.Org, err)
	}
	m.org = org

	if desc.OracleHotPages {
		m.installOraclePlacement(streams, stackedLines)
	}
	if cfg.UseL3 {
		m.l3 = cache.NewL3(cache.L3Config((32 << 20) / cfg.ScaleDiv))
	}
	if cfg.UseTLB {
		for core := 0; core < cfg.Cores; core++ {
			m.tlbs = append(m.tlbs, tlb.New(tlb.DefaultConfig()))
		}
	}

	for core := 0; core < cfg.Cores; core++ {
		var src workload.Source
		if rec != nil {
			src = rec.cores[core].Replay()
		} else {
			src = streams[core]
		}
		cc := cpu.DefaultConfig(core, mix[core%len(mix)].MLP, cfg.InstrPerCore)
		cc.Warmup = cfg.WarmupInstr
		c := cpu.New(cc, m.eng, src, m.memFunc)
		if cfg.WarmupInstr > 0 {
			c.OnWarm = m.onWarm
		}
		m.cores = append(m.cores, c)
	}
	return m, nil
}

// validate reports an empty or invalid mix and an invalid configuration.
// It checks the configuration before anything is sized by cfg.Cores: a
// negative core count must be a config error, not a makeslice panic.
func validate(mix []workload.Spec, cfg Config) error {
	if len(mix) == 0 {
		return fmt.Errorf("system: empty mix")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, spec := range mix {
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// onWarm resets the shared statistics once every core has crossed its
// warm-up boundary; the measured region starts here.
func (m *machine) onWarm(coreID int, now uint64) {
	m.warmCores++
	if m.warmCores < m.cfg.Cores {
		return
	}
	m.warmEnd = now
	m.org.ResetStats()
	m.vmm.ResetStats()
	if m.l3 != nil {
		m.l3.Cache().ResetStats()
	}
	m.dropped = 0
}

// buildOrg constructs the organization under test through its registry
// descriptor. Constructor failures (bad geometry after scaling, invalid
// DRAM timing) are reported as errors and surface as per-cell job failures
// instead of crashing the sweep.
func buildOrg(desc memorg.Descriptor, cfg Config, vmm *vm.Memory, visibleLines, stackedLines uint64) (memsys.Organization, error) {
	newDevice := func(c dram.Config) (dram.Device, error) {
		if cfg.FRFCFS {
			return memctrl.NewController(c)
		}
		return dram.New(c)
	}
	env := cfg.buildEnv()
	env.VisibleLines = visibleLines
	env.StackedLines = stackedLines
	env.OS = vmm
	env.NewStacked = func() (dram.Device, error) {
		c := dram.StackedConfig(cfg.StackedBytes())
		if cfg.Refresh {
			c.EnableRefresh(260) // denser stacks refresh faster per bank
		}
		if cfg.WriteBuffered {
			c.EnableWriteBuffering(8)
		}
		return newDevice(c)
	}
	env.NewOffChip = func(capacity uint64) (dram.Device, error) {
		c := dram.OffChipConfig(capacity)
		if cfg.Refresh {
			c.EnableRefresh(350)
		}
		if cfg.WriteBuffered {
			c.EnableWriteBuffering(8)
		}
		return newDevice(c)
	}
	return desc.Build(env)
}

// installOraclePlacement grants TLM-Oracle its profiled knowledge: each
// core's share of stacked frames goes to its most-accessed pages.
func (m *machine) installOraclePlacement(streams []*workload.Stream, stackedLines uint64) {
	perCore := int(stackedLines / vm.LinesPerPage / uint64(m.cfg.Cores))
	hot := make([]map[uint64]bool, m.cfg.Cores)
	for core, s := range streams {
		hot[core] = make(map[uint64]bool, perCore)
		for _, p := range s.HotPages(perCore) {
			hot[core][p] = true
		}
	}
	m.vmm.PreferStacked = func(proc int, vpage uint64) bool { return hot[proc][vpage] }
}

// memFunc is the memory hierarchy as seen by the cores.
func (m *machine) memFunc(coreID int, now uint64, req workload.Request) cpu.Outcome {
	if req.Write {
		pline, ok := m.vmm.TranslateNoFault(coreID, req.VLine, true)
		if !ok {
			m.dropped++
			return cpu.Outcome{Complete: now}
		}
		if m.l3 != nil {
			r := m.l3.Access(pline, true)
			if r.Hit {
				return cpu.Outcome{Complete: now}
			}
			if r.Writeback.Valid {
				m.org.Access(now, memsys.Request{Core: coreID, PLine: r.Writeback.Addr, PC: req.PC, Write: true})
			}
		}
		m.org.Access(now, memsys.Request{Core: coreID, PLine: pline, PC: req.PC, Write: true})
		return cpu.Outcome{Complete: now}
	}

	var tlbPenalty uint64
	if m.tlbs != nil {
		tlbPenalty = m.tlbs[coreID].Access(req.VLine / vm.LinesPerPage)
	}
	pline, fault := m.vmm.Translate(coreID, req.VLine, false)
	// The DRAM access is timed at `now` even on a page fault, with the
	// fault stall added to the completion instead: stamping the access
	// 100K cycles into the future would poison bank busy-until state for
	// every other core's earlier requests (time travel in the analytic
	// DRAM model). The bank-occupancy shift is negligible; the latency and
	// blocking are preserved exactly.
	stall := tlbPenalty
	var block uint64
	if fault.Fault {
		stall += fault.StallCycles
		block = now + stall
	}

	if m.l3 != nil {
		r := m.l3.Access(pline, false)
		if r.Hit {
			return cpu.Outcome{Complete: now + stall + L3LookupCycles, BlockUntil: block}
		}
		if r.Writeback.Valid {
			m.org.Access(now+L3LookupCycles, memsys.Request{Core: coreID, PLine: r.Writeback.Addr, PC: req.PC, Write: true})
		}
	}
	complete := m.org.Access(now+L3LookupCycles, memsys.Request{Core: coreID, PLine: pline, PC: req.PC})
	m.lat.Observe(complete + stall - now)
	return cpu.Outcome{Complete: complete + stall, BlockUntil: block}
}

// registerMetrics assembles the run's metrics registry. Every instrument is
// a pull-style closure over live counters, so building the registry after
// the run costs nothing on the simulation hot path.
func (m *machine) registerMetrics() *metrics.Registry {
	reg := metrics.NewRegistry()
	if src, ok := m.org.(memsys.MetricSource); ok {
		src.RegisterMetrics(reg)
	}
	m.vmm.RegisterMetrics(reg.Scope("vm"))
	if m.l3 != nil {
		m.l3.RegisterMetrics(reg.Scope("l3"))
	}
	m.eng.RegisterMetrics(reg.Scope("sim"))
	sys := reg.Scope("sys")
	sys.BucketsFunc("demand_latency", m.lat.Buckets)
	sys.CounterFunc("dropped_writebacks", func() uint64 { return m.dropped })
	return reg
}

// Run simulates spec in rate mode (every core runs a copy) and returns the
// measurements. It panics on an invalid spec or configuration; use TryRun
// when the configuration is runtime input (sweep cells).
func Run(spec workload.Spec, cfg Config) Result {
	res, err := TryRun(context.Background(), spec, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// TryRun is Run with invalid specs and configurations reported as errors
// instead of panics, so one bad sweep cell fails as a cell, not a process.
// ctx cancellation preempts the event loop cooperatively (the engine polls
// it every few thousand events) and comes back as an error wrapping
// ctx.Err(), so a timed-out or interrupted cell releases its goroutine and
// memory instead of simulating to completion.
func TryRun(ctx context.Context, spec workload.Spec, cfg Config) (Result, error) {
	return (*Recording)(nil).TryRun(ctx, spec, cfg)
}

// RunMix simulates a multi-programmed mix: core i runs mix[i mod len(mix)].
// The reported class is CapacityLimited if any member is. It panics on an
// invalid mix or configuration; use TryRunMix for runtime input.
func RunMix(mix []workload.Spec, cfg Config) Result {
	res, err := TryRunMix(context.Background(), mix, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// TryRunMix is RunMix with validation failures reported as errors and the
// same cooperative-cancellation contract as TryRun.
func TryRunMix(ctx context.Context, mix []workload.Spec, cfg Config) (Result, error) {
	return (*Recording)(nil).TryRunMix(ctx, mix, cfg)
}

// TryRun is system.TryRun with every core replaying r instead of
// generating its stream; a nil r generates live. r must have been recorded
// for the same stream identity (StreamKey), or the run fails.
func (r *Recording) TryRun(ctx context.Context, spec workload.Spec, cfg Config) (Result, error) {
	return runMachine(ctx, []workload.Spec{spec}, cfg, spec.Name, spec.Class, r)
}

// TryRunMix is system.TryRunMix replaying r, under TryRun's contract.
func (r *Recording) TryRunMix(ctx context.Context, mix []workload.Spec, cfg Config) (Result, error) {
	names := make([]string, len(mix))
	class := workload.LatencyLimited
	for i, spec := range mix {
		names[i] = spec.Name
		if spec.Class == workload.CapacityLimited {
			class = workload.CapacityLimited
		}
	}
	return runMachine(ctx, mix, cfg, "mix("+strings.Join(names, "+")+")", class, r)
}

func runMachine(ctx context.Context, mix []workload.Spec, cfg Config, name string, class workload.Class, rec *Recording) (Result, error) {
	m, err := newMachine(mix, cfg.WithDefaults(), rec)
	if err != nil {
		return Result{}, err
	}
	return m.run(ctx, name, class)
}

// run simulates the machine to completion and extracts the result, which
// holds copies only: nothing in it keeps the machine reachable.
func (m *machine) run(ctx context.Context, name string, class workload.Class) (Result, error) {
	cfg := m.cfg
	if ctx == nil {
		ctx = context.Background()
	}
	m.eng.SetCancel(ctx.Done())
	for _, c := range m.cores {
		c.Start()
	}
	m.eng.Run()
	if m.eng.Preempted() {
		// The run is partial: no Result escapes, the machine (heap, arenas,
		// page tables) becomes garbage, and the caller's goroutine returns.
		return Result{}, fmt.Errorf("system: %s on %s cancelled at cycle %d: %w",
			name, cfg.Org, m.eng.Now(), ctx.Err())
	}

	res := Result{
		Org:               m.org.Name(),
		Benchmark:         name,
		Class:             class,
		Cores:             cfg.Cores,
		Stacked:           m.org.StackedStats(),
		OffChip:           m.org.OffChipStats(),
		VM:                m.vmm.Stats(),
		DroppedWritebacks: m.dropped,
	}
	if cfg.WarmupInstr > 0 && m.warmCores == cfg.Cores {
		res.WarmupEndCycle = m.warmEnd
	}
	var totalLat, totalDem uint64
	for _, c := range m.cores {
		st := c.Stats()
		res.Instructions += st.Retired
		res.Demands += st.Demands
		res.Writebacks += st.Writebacks
		totalLat += st.TotalMemLatency
		totalDem += st.Demands
		if st.FinishCycle > res.Cycles {
			res.Cycles = st.FinishCycle
		}
	}
	if totalDem > 0 {
		res.AvgMemLatency = float64(totalLat) / float64(totalDem)
	}
	if res.WarmupEndCycle > 0 && res.Cycles > res.WarmupEndCycle {
		// Execution time of the measured region only.
		res.Cycles -= res.WarmupEndCycle
		res.Instructions -= cfg.WarmupInstr * uint64(cfg.Cores)
	}
	lat := m.lat
	res.Latency = &lat
	res.LatencyP50 = m.lat.Quantile(0.50)
	res.LatencyP95 = m.lat.Quantile(0.95)
	res.LatencyP99 = m.lat.Quantile(0.99)
	switch org := m.org.(type) {
	case *cameo.System:
		st := org.Stats()
		res.Cameo = &st
	case *alloy.Cache:
		st := org.Stats()
		res.Alloy = &st
	case *lohhill.Cache:
		st := org.Stats()
		res.LohHill = &st
	case *tlm.Dynamic:
		st := org.Migrations()
		res.Migrations = &st
	case *tlm.Freq:
		st := org.Migrations()
		res.Migrations = &st
	}
	if m.l3 != nil {
		st := m.l3.Stats()
		res.L3 = &st
	}
	res.Metrics = m.registerMetrics().Snapshot()
	return res, nil
}
