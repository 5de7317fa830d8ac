// Command cameo-sim runs one (benchmark, organization) simulation and
// prints a detailed result: execution time, memory latency, per-module
// bandwidth, paging behaviour, and organization-specific statistics.
//
// Usage:
//
//	cameo-sim -bench mcf -org cameo
//	cameo-sim -bench milc -org cameo -llt embedded -pred sam
//	cameo-sim -bench sphinx3 -org cache -scale 512 -cores 16 -instr 1000000
//	cameo-sim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"cameo/internal/cameo"
	"cameo/internal/profiling"
	"cameo/internal/report"
	"cameo/internal/runner"
	"cameo/internal/system"
	"cameo/internal/workload"
)

var lltNames = map[string]cameo.LLTKind{
	"colocated": cameo.CoLocatedLLT,
	"embedded":  cameo.EmbeddedLLT,
	"ideal":     cameo.IdealLLT,
}

var predNames = map[string]cameo.PredKind{
	"llp":     cameo.LLP,
	"sam":     cameo.SAM,
	"perfect": cameo.Perfect,
}

// keys lists m's names sorted, so help and error text are stable.
func keys[V any](m map[string]V) string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ", ")
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program; main only translates its result into an exit
// status. Error paths return instead of calling os.Exit so deferred cleanup
// (in particular stopping -cpuprofile, whose file is truncated garbage unless
// pprof.StopCPUProfile runs) always executes.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("cameo-sim", flag.ContinueOnError)
	var (
		bench    = fs.String("bench", "sphinx3", "benchmark name from Table II")
		org      = fs.String("org", "cameo", "organization: "+strings.Join(system.OrgNames(), ", "))
		llt      = fs.String("llt", "colocated", "CAMEO LLT design: "+keys(lltNames))
		pred     = fs.String("pred", "llp", "CAMEO predictor: "+keys(predNames))
		scale    = fs.Uint64("scale", 1024, "capacity scale divisor")
		cores    = fs.Int("cores", 32, "core count")
		instr    = fs.Uint64("instr", 600_000, "instructions per core")
		seed     = fs.Uint64("seed", 0xCA3E0, "random seed")
		useL3    = fs.Bool("l3", false, "model the shared L3 explicitly")
		mempart  = fs.Int("mempart", 0, "memcache: percent of stacked DRAM exposed as memory (0 = org default)")
		ways     = fs.Int("ways", 0, "gemini: victim-region associativity (0 = org default)")
		list     = fs.Bool("list", false, "list benchmarks and exit")
		listOrgs = fs.Bool("list-orgs", false, "list registered memory organizations and exit")
		vsBase   = fs.Bool("speedup", true, "also run the baseline and report speedup")
		mix      = fs.String("mix", "", "comma-separated benchmarks for a multi-programmed mix (overrides -bench)")
		warmup   = fs.Uint64("warmup", 0, "per-core warm-up instructions before measurement")
		refresh  = fs.Bool("refresh", false, "model DRAM refresh")
		asJSON   = fs.Bool("json", false, "emit the result as JSON instead of text")
		hist     = fs.Bool("hist", false, "print the demand-latency histogram")
		jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers (the -speedup baseline runs concurrently)")
		cachedir = fs.String("cachedir", "", "persistent result-cache directory (note: cached results omit the -hist histogram)")

		jobTimeout = fs.Duration("job-timeout", 0, "watchdog: cancel and fail a run longer than this (0 = off)")
	)
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cameo-sim:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sim:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *list {
		for _, s := range workload.Specs() {
			fmt.Printf("%-12s %-9s MPKI=%-5.1f footprint=%.1fGB\n",
				s.Name, s.Class, s.MPKI, float64(s.FootprintBytes)/float64(1<<30))
		}
		return 0
	}
	if *listOrgs {
		for _, name := range system.OrgNames() {
			k, _ := system.ParseOrg(name)
			if d, ok := system.OrgDescriptor(k); ok {
				fmt.Printf("%-12s %-12s %s\n", d.Name, d.Display, d.Summary)
			}
		}
		return 0
	}

	var mixSpecs []workload.Spec
	if *mix != "" {
		for _, name := range strings.Split(*mix, ",") {
			ms, ok := workload.SpecByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "cameo-sim: unknown mix member %q (use -list)\n", name)
				return 2
			}
			mixSpecs = append(mixSpecs, ms)
		}
	}
	spec, ok := workload.SpecByName(*bench)
	if !ok && len(mixSpecs) == 0 {
		fmt.Fprintf(os.Stderr, "cameo-sim: unknown benchmark %q (use -list)\n", *bench)
		return 2
	}
	kind, ok := system.ParseOrg(*org)
	if !ok {
		fmt.Fprintf(os.Stderr, "cameo-sim: unknown organization %q (have: %s)\n", *org, strings.Join(system.OrgNames(), ", "))
		return 2
	}
	cfg := system.Config{
		Org:          kind,
		ScaleDiv:     *scale,
		Cores:        *cores,
		InstrPerCore: *instr,
		Seed:         *seed,
		UseL3:        *useL3,
		WarmupInstr:  *warmup,
		Refresh:      *refresh,
		MemPartPct:   *mempart,
		HybridWays:   *ways,
	}
	if kind == system.CAMEO {
		var ok1, ok2 bool
		cfg.LLT, ok1 = lltNames[strings.ToLower(*llt)]
		cfg.Pred, ok2 = predNames[strings.ToLower(*pred)]
		if !ok1 || !ok2 {
			fmt.Fprintf(os.Stderr, "cameo-sim: bad -llt/-pred (llt: %s; pred: %s)\n",
				keys(lltNames), keys(predNames))
			return 2
		}
	}

	ropts := runner.Options{Jobs: *jobs, JobTimeout: *jobTimeout}
	if *cachedir != "" {
		cache, err := runner.OpenDiskCache(*cachedir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sim:", err)
			return 1
		}
		defer cache.Close()
		ropts.Cache = cache
	}
	pool := runner.New(ropts)
	mkJob := func(c system.Config) runner.Job {
		if len(mixSpecs) > 0 {
			return runner.MixJob(mixSpecs, c)
		}
		return runner.NewJob(spec, c)
	}
	getResult := func(c system.Config) (system.Result, bool) {
		res, err := pool.Get(ctx, mkJob(c))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sim:", err)
			return system.Result{}, false
		}
		return res, true
	}
	if *vsBase && kind != system.Baseline {
		// Fan the measured run and its baseline across the pool up front.
		// A run that failed is memoized: getResult below reports its error
		// without running it again.
		bcfg := cfg
		bcfg.Org = system.Baseline
		var failed *runner.FailedCellsError
		if err := pool.RunAll(ctx, []runner.Job{mkJob(cfg), mkJob(bcfg)}); err != nil && !errors.As(err, &failed) {
			fmt.Fprintln(os.Stderr, "cameo-sim:", err)
			return 1
		}
	}
	res, ok := getResult(cfg)
	if !ok {
		return 1
	}
	if *asJSON {
		if err := report.WriteJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sim:", err)
			return 1
		}
		return 0
	}
	printResult(res)
	if *hist && res.Latency != nil {
		fmt.Println("\ndemand latency distribution (cycles):")
		res.Latency.Render(os.Stdout)
	}

	if *vsBase && kind != system.Baseline {
		bcfg := cfg
		bcfg.Org = system.Baseline
		base, ok := getResult(bcfg)
		if !ok {
			return 1
		}
		fmt.Printf("\nspeedup vs baseline: %.2fx (baseline %d cycles)\n",
			float64(base.Cycles)/float64(res.Cycles), base.Cycles)
	}
	return 0
}

func printResult(r system.Result) {
	fmt.Printf("organization:   %s\n", r.Org)
	fmt.Printf("benchmark:      %s (%s-limited)\n", r.Benchmark, r.Class)
	fmt.Printf("cores:          %d\n", r.Cores)
	fmt.Printf("instructions:   %d\n", r.Instructions)
	fmt.Printf("cycles:         %d (aggregate IPC %.2f)\n", r.Cycles, r.IPC())
	fmt.Printf("demands:        %d (avg latency %.0f cycles, p50<=%d p95<=%d p99<=%d)\n",
		r.Demands, r.AvgMemLatency, r.LatencyP50, r.LatencyP95, r.LatencyP99)
	fmt.Printf("writebacks:     %d (%d dropped with evicted pages)\n", r.Writebacks, r.DroppedWritebacks)
	fmt.Printf("stacked DRAM:   %d accesses, %.1f MB, row-hit %.0f%%\n",
		r.Stacked.Accesses(), float64(r.Stacked.Bytes())/1e6, 100*r.Stacked.RowHitRate())
	fmt.Printf("off-chip DRAM:  %d accesses, %.1f MB, row-hit %.0f%%\n",
		r.OffChip.Accesses(), float64(r.OffChip.Bytes())/1e6, 100*r.OffChip.RowHitRate())
	fmt.Printf("paging:         %d minor, %d major faults, %.1f MB storage traffic\n",
		r.VM.MinorFaults, r.VM.MajorFaults, float64(r.StorageBytes())/1e6)
	if r.Cameo != nil {
		fmt.Printf("CAMEO:          stacked service %.1f%%, %d swaps, predictor accuracy %.1f%%\n",
			100*r.Cameo.StackedServiceRate(), r.Cameo.Swaps, 100*r.Cameo.Cases.Accuracy())
		p := r.Cameo.Cases.Percent()
		fmt.Printf("LLP cases:      stk/stk %.1f%%  stk/off %.1f%%  off/stk %.1f%%  off/ok %.1f%%  off/wrong %.1f%%\n",
			p[0], p[1], p[2], p[3], p[4])
	}
	if r.Alloy != nil {
		fmt.Printf("Alloy cache:    hit rate %.1f%%, %d fills, %d dirty evicts, %d wasted reads\n",
			100*r.Alloy.HitRate(), r.Alloy.Fills, r.Alloy.DirtyEvicts, r.Alloy.WastedReads)
	}
	if r.LohHill != nil {
		fmt.Printf("LH cache:       hit rate %.1f%%, %d fills, %d dirty evicts\n",
			100*r.LohHill.HitRate(), r.LohHill.Fills, r.LohHill.DirtyEvicts)
	}
	if r.Migrations != nil {
		fmt.Printf("migrations:     %d page swaps, %d promotions\n", r.Migrations.Swaps, r.Migrations.Moves)
	}
	if r.L3 != nil {
		fmt.Printf("L3:             %d hits, %d misses (miss rate %.1f%%)\n",
			r.L3.Hits, r.L3.Misses, 100*r.L3.MissRate())
	}
}
