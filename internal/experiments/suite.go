// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each experiment is a
// named generator that runs the required (benchmark, organization) grid and
// renders the same rows/series the paper reports. Grids execute through
// internal/runner: each experiment declares its cells up front (Plan), the
// runner fans them across a worker pool, and the render functions then pull
// from the memoized grid — so parallel output is byte-identical to serial.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cameo/internal/cameo"
	"cameo/internal/faultinject"
	"cameo/internal/runner"
	"cameo/internal/stats"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// Options scales the whole suite. Zero fields take defaults.
type Options struct {
	// ScaleDiv divides all capacities and footprints (DESIGN.md).
	ScaleDiv uint64
	// Cores is the rate-mode copy count.
	Cores int
	// InstrPerCore is each core's instruction budget.
	InstrPerCore uint64
	// Seed drives all randomness.
	Seed uint64
	// Benchmarks restricts the workload list (empty = all of Table II).
	Benchmarks []string
	// Jobs is the simulation worker-pool size (<=0 = GOMAXPROCS).
	Jobs int
	// Cache, when non-nil, persists cell results across invocations.
	Cache runner.Cache
	// Progress, when non-nil, receives live progress/ETA lines (stderr).
	Progress io.Writer
	// JobTimeout bounds each cell attempt (0 = no watchdog).
	JobTimeout time.Duration
	// Retries is the per-cell transient-failure retry budget.
	Retries int
	// KeepGoing renders around failed cells (experiments touching them are
	// skipped with a note) instead of aborting the whole suite.
	KeepGoing bool
	// Checkpoint, when non-nil, records completed cells for -resume.
	Checkpoint *runner.Checkpoint
	// Faults injects deterministic chaos at the job site (tests/CLI).
	Faults *faultinject.Plan
	// Shards, when nonzero, runs every cell in the group-sharded execution
	// mode with this many lane workers (system.Config.Shards). Output is
	// byte-identical at every nonzero value; 0 is the sequential engine.
	Shards int
}

// DefaultOptions returns the suite defaults: 1/1024 scale, the paper's 32
// cores, 600K instructions per core — the calibrated operating point of
// EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{ScaleDiv: 1024, Cores: 32, InstrPerCore: 600_000, Seed: 0xCA3E0}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.ScaleDiv == 0 {
		o.ScaleDiv = d.ScaleDiv
	}
	if o.Cores == 0 {
		o.Cores = d.Cores
	}
	if o.InstrPerCore == 0 {
		o.InstrPerCore = d.InstrPerCore
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Suite runs experiments, memoizing (benchmark, organization) results
// through a shared runner so that e.g. Fig 13, Table IV, and Fig 14 share
// one grid of runs — and so those runs execute in parallel.
type Suite struct {
	opts  Options
	specs []workload.Spec
	run   *runner.Runner
	ctx   context.Context
}

// NewSuite builds a suite with the given options. Unknown benchmark names
// are an error (listing the valid names) rather than a panic.
func NewSuite(opts Options) (*Suite, error) {
	opts = opts.withDefaults()
	specs, err := resolveBenchmarks(opts.Benchmarks)
	if err != nil {
		return nil, err
	}
	return &Suite{
		opts:  opts,
		specs: specs,
		run: runner.New(runner.Options{
			Jobs:       opts.Jobs,
			Cache:      opts.Cache,
			Progress:   opts.Progress,
			JobTimeout: opts.JobTimeout,
			Retries:    opts.Retries,
			KeepGoing:  opts.KeepGoing,
			Checkpoint: opts.Checkpoint,
			Faults:     opts.Faults,
		}),
		ctx: context.Background(),
	}, nil
}

// MustNewSuite is NewSuite for known-good options (tests, examples).
func MustNewSuite(opts Options) *Suite {
	s, err := NewSuite(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// resolveBenchmarks maps names to specs, defaulting to all of Table II.
func resolveBenchmarks(names []string) ([]workload.Spec, error) {
	if len(names) == 0 {
		return workload.Specs(), nil
	}
	out := make([]workload.Spec, 0, len(names))
	for _, name := range names {
		sp, ok := workload.SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q (valid: %s)",
				name, strings.Join(BenchmarkNames(), ", "))
		}
		out = append(out, sp)
	}
	return out, nil
}

// BenchmarkNames returns every valid benchmark name in Table II order.
func BenchmarkNames() []string {
	specs := workload.Specs()
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	return names
}

// Options returns the effective options.
func (s *Suite) Options() Options { return s.opts }

// child builds a suite at different options that shares this suite's
// runner (worker pool, memoization, persistent cache) and context — cell
// keys carry the full configuration, so grids at several scales coexist.
func (s *Suite) child(opts Options) (*Suite, error) {
	opts = opts.withDefaults()
	specs, err := resolveBenchmarks(opts.Benchmarks)
	if err != nil {
		return nil, err
	}
	return &Suite{opts: opts, specs: specs, run: s.run, ctx: s.ctx}, nil
}

// bind points render-time pulls at ctx (cancellation during Prewarm and
// any residual render-time computes).
func (s *Suite) bind(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
}

// benchmarks returns the selected workload specs.
func (s *Suite) benchmarks() []workload.Spec {
	out := make([]workload.Spec, len(s.specs))
	copy(out, s.specs)
	return out
}

// sysConfig lifts the suite options into a system config for org.
func (s *Suite) sysConfig(org system.OrgKind) system.Config {
	cfg := system.Config{
		Org:          org,
		ScaleDiv:     s.opts.ScaleDiv,
		Cores:        s.opts.Cores,
		InstrPerCore: s.opts.InstrPerCore,
		Seed:         s.opts.Seed,
	}
	// The suite compares many organizations in one grid; a suite-wide
	// Shards applies to the organizations that declare shardable state and
	// leaves the rest on the sequential engine (their cells and keys are
	// exactly the unsharded ones, so caches still hit).
	if s.opts.Shards > 0 && system.SupportsSharding(org) {
		cfg.Shards = s.opts.Shards
	}
	return cfg
}

// runError wraps a runner failure so render functions (which have no error
// return) can unwind to RunExperiment, which recovers it into an error.
type runError struct{ err error }

func (e runError) Error() string { return e.err.Error() }

// Telemetry returns the observability dump of every cell the suite has
// run so far (see runner.Telemetry for the determinism contract).
func (s *Suite) Telemetry(includeTiming bool) runner.Telemetry {
	return s.run.Telemetry(includeTiming)
}

// FailureReport returns the key-sorted report of cells that exhausted
// their attempts under keep-going mode, or nil when everything succeeded.
func (s *Suite) FailureReport() *runner.FailureReport {
	return s.run.FailureReport()
}

// Prewarm executes the given grid cells across the worker pool ahead of
// rendering. It is purely a performance step: render functions compute any
// cell they find missing, so output is identical with or without it.
func (s *Suite) Prewarm(ctx context.Context, jobs []runner.Job) error {
	return s.run.RunAll(ctx, jobs)
}

// result runs (or recalls) one cell of the grid.
func (s *Suite) result(spec workload.Spec, cfg system.Config) system.Result {
	r, err := s.run.Get(s.ctx, runner.NewJob(spec, cfg))
	if err != nil {
		panic(runError{err})
	}
	return r
}

// mixResult runs (or recalls) one multi-programmed-mix cell.
func (s *Suite) mixResult(mix []workload.Spec, cfg system.Config) system.Result {
	r, err := s.run.Get(s.ctx, runner.MixJob(mix, cfg))
	if err != nil {
		panic(runError{err})
	}
	return r
}

// Results returns every memoized run in deterministic (canonical cell key)
// order — the raw grid behind the rendered tables, for CSV export. The
// order is independent of worker count and completion order.
func (s *Suite) Results() []system.Result {
	return s.run.Results()
}

// baseline returns the baseline run for spec.
func (s *Suite) baseline(spec workload.Spec) system.Result {
	return s.result(spec, s.sysConfig(system.Baseline))
}

// speedup returns cfg's speedup over the baseline for spec.
func (s *Suite) speedup(spec workload.Spec, cfg system.Config) float64 {
	return stats.Speedup(s.baseline(spec).Cycles, s.result(spec, cfg).Cycles)
}

// column is one design series in a speedup chart.
type column struct {
	label string
	cfg   system.Config
}

// cameoCfg builds a CAMEO config variant.
func (s *Suite) cameoCfg(llt cameo.LLTKind, pred cameo.PredKind) system.Config {
	cfg := s.sysConfig(system.CAMEO)
	cfg.LLT = llt
	cfg.Pred = pred
	return cfg
}

// planSpeedup declares the grid a speedupTable over cols pulls: the
// baseline plus every column config, for every benchmark.
func (s *Suite) planSpeedup(cols []column) []runner.Job {
	jobs := make([]runner.Job, 0, len(s.specs)*(1+len(cols)))
	for _, spec := range s.specs {
		jobs = append(jobs, runner.NewJob(spec, s.sysConfig(system.Baseline)))
		for _, c := range cols {
			jobs = append(jobs, runner.NewJob(spec, c.cfg))
		}
	}
	return jobs
}

// planConfigs declares benchmarks x cfgs (no implicit baseline).
func (s *Suite) planConfigs(cfgs []system.Config) []runner.Job {
	jobs := make([]runner.Job, 0, len(s.specs)*len(cfgs))
	for _, spec := range s.specs {
		for _, cfg := range cfgs {
			jobs = append(jobs, runner.NewJob(spec, cfg))
		}
	}
	return jobs
}

// speedupTable renders a per-benchmark speedup chart with class and overall
// geometric means — the shape of Figures 2, 9, 12, 13 and 15.
func (s *Suite) speedupTable(title string, cols []column, w io.Writer) {
	headers := append([]string{"Workload", "Class"}, make([]string, 0, len(cols))...)
	for _, c := range cols {
		headers = append(headers, c.label)
	}
	tab := stats.NewTable(title, headers...)

	perClass := map[workload.Class]map[string][]float64{}
	overall := map[string][]float64{}
	benches := s.benchmarks()
	sort.SliceStable(benches, func(i, j int) bool { return benches[i].Class < benches[j].Class })

	for _, spec := range benches {
		row := []any{spec.Name, spec.Class.String()}
		for _, c := range cols {
			sp := s.speedup(spec, c.cfg)
			row = append(row, sp)
			if perClass[spec.Class] == nil {
				perClass[spec.Class] = map[string][]float64{}
			}
			perClass[spec.Class][c.label] = append(perClass[spec.Class][c.label], sp)
			overall[c.label] = append(overall[c.label], sp)
		}
		tab.AddRowF(row...)
	}
	for _, class := range []workload.Class{workload.CapacityLimited, workload.LatencyLimited} {
		if perClass[class] == nil {
			continue
		}
		row := []any{"Gmean", class.String()}
		for _, c := range cols {
			row = append(row, stats.Gmean(perClass[class][c.label]))
		}
		tab.AddRowF(row...)
	}
	row := []any{"Gmean", "ALL"}
	for _, c := range cols {
		row = append(row, stats.Gmean(overall[c.label]))
	}
	tab.AddRowF(row...)
	tab.Render(w)
}
