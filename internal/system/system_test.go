package system

import (
	"context"
	"testing"

	"cameo/internal/cameo"
	"cameo/internal/workload"
)

// quickCfg returns a configuration small enough for unit tests.
func quickCfg(org OrgKind) Config {
	return Config{
		Org:          org,
		ScaleDiv:     4096,
		Cores:        4,
		InstrPerCore: 60_000,
		Seed:         17,
	}
}

func spec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, ok := workload.SpecByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).WithDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{ScaleDiv: 3, Cores: 1, InstrPerCore: 1},
		{ScaleDiv: 1 << 20, Cores: 1, InstrPerCore: 1},
		{ScaleDiv: 256, Cores: 0, InstrPerCore: 1},
		{ScaleDiv: 256, Cores: 1, InstrPerCore: 0},
		// Defaulted so that only the core count is wrong.
		Config{Cores: MaxCores + 1}.WithDefaults(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed", i)
		}
	}
}

func TestGeometryPerOrg(t *testing.T) {
	cfg := quickCfg(Baseline).WithDefaults()
	offLines := cfg.OffChipBytes() / 64
	stkLines := cfg.StackedBytes() / 64

	v, s := geometry(cfg)
	if v != offLines || s != 0 {
		t.Fatalf("baseline geometry = %d/%d", v, s)
	}
	cfg.Org = TLMStatic
	v, s = geometry(cfg)
	if v != offLines+stkLines || s != stkLines {
		t.Fatalf("TLM geometry = %d/%d", v, s)
	}
	cfg.Org = DoubleUse
	v, s = geometry(cfg)
	if v != offLines+stkLines || s != 0 {
		t.Fatalf("DoubleUse geometry = %d/%d", v, s)
	}
	cfg.Org = CAMEO
	v, s = geometry(cfg)
	if v != s*4 || s == 0 || s > stkLines {
		t.Fatalf("CAMEO geometry = %d/%d", v, s)
	}
	if v%64 != 0 {
		t.Fatalf("CAMEO visible space not page aligned: %d", v)
	}
}

func TestRunDeterminism(t *testing.T) {
	s := spec(t, "sphinx3")
	a := Run(s, quickCfg(CAMEO))
	b := Run(s, quickCfg(CAMEO))
	if a.Cycles != b.Cycles || a.Demands != b.Demands ||
		a.Stacked.Bytes() != b.Stacked.Bytes() {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestAllOrganizationsRun(t *testing.T) {
	s := spec(t, "sphinx3")
	for _, org := range []OrgKind{Baseline, Cache, TLMStatic, TLMDynamic,
		TLMFreq, TLMOracle, CAMEO, DoubleUse} {
		res := Run(s, quickCfg(org))
		if res.Cycles == 0 {
			t.Errorf("%v: zero cycles", org)
		}
		if res.Demands == 0 {
			t.Errorf("%v: no demand accesses", org)
		}
		if res.Instructions < 4*60_000 {
			t.Errorf("%v: retired %d instructions", org, res.Instructions)
		}
	}
}

func TestBaselineHasNoStackedTraffic(t *testing.T) {
	res := Run(spec(t, "sphinx3"), quickCfg(Baseline))
	if res.Stacked.Accesses() != 0 {
		t.Fatalf("baseline stacked accesses = %d", res.Stacked.Accesses())
	}
	if res.OffChip.Accesses() == 0 {
		t.Fatal("baseline off-chip idle")
	}
}

func TestStackedOrgsUseStacked(t *testing.T) {
	for _, org := range []OrgKind{Cache, TLMStatic, CAMEO} {
		res := Run(spec(t, "sphinx3"), quickCfg(org))
		if res.Stacked.Accesses() == 0 {
			t.Errorf("%v: stacked DRAM idle", org)
		}
	}
}

func TestCAMEOBeatsBaselineOnLatencyWorkload(t *testing.T) {
	s := spec(t, "sphinx3") // small footprint, latency-limited
	base := Run(s, quickCfg(Baseline))
	cam := Run(s, quickCfg(CAMEO))
	if cam.Cycles >= base.Cycles {
		t.Fatalf("CAMEO (%d cycles) not faster than baseline (%d)", cam.Cycles, base.Cycles)
	}
}

func TestCapacityOrgsReduceFaults(t *testing.T) {
	s := spec(t, "lbm") // footprint just over baseline capacity
	cfg := quickCfg(Baseline)
	cfg.InstrPerCore = 100_000
	base := Run(s, cfg)
	cfg.Org = TLMStatic
	tlmRes := Run(s, cfg)
	if base.VM.MajorFaults == 0 {
		t.Skip("baseline did not thrash at this scale")
	}
	if tlmRes.VM.MajorFaults >= base.VM.MajorFaults {
		t.Fatalf("TLM major faults %d not below baseline %d",
			tlmRes.VM.MajorFaults, base.VM.MajorFaults)
	}
}

func TestCacheDoesNotAddCapacity(t *testing.T) {
	s := spec(t, "lbm")
	cfg := quickCfg(Baseline)
	cfg.InstrPerCore = 100_000
	base := Run(s, cfg)
	cfg.Org = Cache
	cacheRes := Run(s, cfg)
	// The Alloy cache must not change paging behaviour materially: same
	// visible capacity, same placement seed.
	if base.VM.MajorFaults == 0 {
		t.Skip("baseline did not thrash at this scale")
	}
	ratio := float64(cacheRes.VM.MajorFaults) / float64(base.VM.MajorFaults)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("cache changed fault count: %d vs %d", cacheRes.VM.MajorFaults, base.VM.MajorFaults)
	}
}

func TestCAMEOLLTVariantOrdering(t *testing.T) {
	// Ideal >= CoLocated >= Embedded in performance on a latency workload
	// (i.e. cycles ordered the other way).
	s := spec(t, "soplex")
	run := func(llt cameo.LLTKind) uint64 {
		cfg := quickCfg(CAMEO)
		cfg.LLT = llt
		cfg.Pred = cameo.SAM
		return Run(s, cfg).Cycles
	}
	ideal, col, emb := run(cameo.IdealLLT), run(cameo.CoLocatedLLT), run(cameo.EmbeddedLLT)
	if !(ideal <= col && col <= emb) {
		t.Fatalf("cycle ordering ideal=%d colocated=%d embedded=%d", ideal, col, emb)
	}
}

func TestPredictionOrdering(t *testing.T) {
	// Use a scale where milc's footprint dwarfs stacked DRAM so a real
	// fraction of demands is serviced off-chip and prediction matters.
	s := spec(t, "milc")
	run := func(p cameo.PredKind) (uint64, float64) {
		cfg := quickCfg(CAMEO)
		cfg.ScaleDiv = 512
		cfg.InstrPerCore = 150_000
		cfg.LLT = cameo.CoLocatedLLT
		cfg.Pred = p
		r := Run(s, cfg)
		return r.Cycles, r.Cameo.Cases.Accuracy()
	}
	sam, accSAM := run(cameo.SAM)
	llp, accLLP := run(cameo.LLP)
	perfect, accPerf := run(cameo.Perfect)
	if !(perfect <= llp && llp <= sam) {
		t.Fatalf("cycle ordering perfect=%d llp=%d sam=%d", perfect, llp, sam)
	}
	if !(accPerf == 1 && accLLP > accSAM) {
		t.Fatalf("accuracy ordering perfect=%v llp=%v sam=%v", accPerf, accLLP, accSAM)
	}
}

func TestCameoStatsExposed(t *testing.T) {
	res := Run(spec(t, "sphinx3"), quickCfg(CAMEO))
	if res.Cameo == nil {
		t.Fatal("CAMEO stats missing")
	}
	if res.Cameo.Cases.Total() == 0 {
		t.Fatal("no prediction cases recorded")
	}
	if acc := res.Cameo.Cases.Accuracy(); acc <= 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestAlloyStatsExposed(t *testing.T) {
	res := Run(spec(t, "sphinx3"), quickCfg(Cache))
	if res.Alloy == nil {
		t.Fatal("alloy stats missing")
	}
	if res.Alloy.Hits+res.Alloy.Misses == 0 {
		t.Fatal("alloy idle")
	}
}

func TestMigrationStatsExposed(t *testing.T) {
	res := Run(spec(t, "milc"), quickCfg(TLMDynamic))
	if res.Migrations == nil {
		t.Fatal("migration stats missing")
	}
	if res.Migrations.Swaps+res.Migrations.Moves == 0 {
		t.Fatal("TLM-Dynamic never migrated")
	}
}

func TestUseL3Wiring(t *testing.T) {
	s := spec(t, "sphinx3")
	cfg := quickCfg(CAMEO)
	direct := Run(s, cfg)
	if direct.L3 != nil {
		t.Fatal("L3 stats present without UseL3")
	}
	cfg.UseL3 = true
	filtered := Run(s, cfg)
	if filtered.L3 == nil {
		t.Fatal("L3 stats missing with UseL3")
	}
	if filtered.L3.Hits == 0 {
		t.Fatal("scaled L3 absorbed nothing")
	}
	if filtered.L3.Hits+filtered.L3.Misses == 0 || filtered.L3.MissRate() >= 1 {
		t.Fatalf("implausible L3 stats: %+v", *filtered.L3)
	}
}

func TestOracleBeatsStaticPlacement(t *testing.T) {
	s := spec(t, "soplex")
	cfg := quickCfg(TLMStatic)
	cfg.InstrPerCore = 100_000
	static := Run(s, cfg)
	cfg.Org = TLMOracle
	oracle := Run(s, cfg)
	if oracle.Cycles >= static.Cycles {
		t.Fatalf("oracle placement (%d) not faster than random (%d)", oracle.Cycles, static.Cycles)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	res := Run(spec(t, "astar"), quickCfg(Baseline))
	// Aggregate IPC is bounded by cores * peak IPC.
	if res.IPC() <= 0 || res.IPC() > float64(res.Cores)*2 {
		t.Fatalf("IPC = %v, want (0, %d]", res.IPC(), res.Cores*2)
	}
	if (Result{}).IPC() != 0 {
		t.Fatal("zero-cycle IPC not 0")
	}
}

// TestTryRunReportsInvalidConfig: validation and constructor failures come
// back as errors from TryRun (per-cell job failures), while Run keeps the
// panicking contract for static callers.
func TestTryRunReportsInvalidConfig(t *testing.T) {
	spec, _ := workload.SpecByName("sphinx3")
	bad := Config{Org: CAMEO, ScaleDiv: 1000, Cores: 2, InstrPerCore: 1000} // not a power of two
	if _, err := TryRun(context.Background(), spec, bad); err == nil {
		t.Fatal("TryRun accepted a non-power-of-two ScaleDiv")
	}
	if _, err := TryRunMix(context.Background(), nil, Config{ScaleDiv: 4096, Cores: 2, InstrPerCore: 1000}); err == nil {
		t.Fatal("TryRunMix accepted an empty mix")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not panic on invalid config")
		}
	}()
	Run(spec, bad)
}
