// Command cameo-sweep runs one organization across a parameter sweep and
// emits a CSV grid — the workhorse for sensitivity studies beyond the
// canned experiments.
//
// Sweepable dimensions: benchmark (always), plus one of
//
//	-sweep scale   -values 512,1024,2048     capacity scale divisor
//	-sweep cores   -values 8,16,32           rate-mode copies
//	-sweep ratio   -values 2,4               stacked share divisor
//	-sweep seed    -values 1,2,3,4,5         placement/stream seeds
//
// Organizations may declare extra dimensions (system.SweepDims):
//
//	-org memcache -sweep mempart -values 25,50,75   memory/cache partition %
//	-org gemini   -sweep ways    -values 2,4,8      victim-region associativity
//
// Example:
//
//	cameo-sweep -org cameo -bench milc,gcc -sweep scale -values 512,1024 -out sweep.csv
//
// Cells fan out across -jobs workers; rows are emitted in sweep order
// regardless of completion order, so the CSV is byte-identical for any
// worker count. With -cachedir, already-simulated cells load from disk, so
// rerunning an interrupted sweep over the same directory simulates only the
// cells it had not finished. A cell that fails (a panic, a -job-timeout)
// is attempted once: the CSV skips it, -failures writes the failure
// report, and the exit status is 3; failed cells are never cached, so a
// rerun over the same -cachedir retries only them. -chaos injects
// deterministic faults to drill exactly those paths.
// Exit codes: 0 success, 1 runtime error, 2 bad flags or an invalid cell
// configuration, 3 failed cells, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"cameo/internal/experiments"
	"cameo/internal/faultinject"
	"cameo/internal/profiling"
	"cameo/internal/report"
	"cameo/internal/runner"
	"cameo/internal/system"
	"cameo/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program; main only translates its result into an exit
// status. Error paths return instead of calling os.Exit so deferred cleanup
// (in particular stopping -cpuprofile, whose file is truncated garbage unless
// pprof.StopCPUProfile runs) always executes.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("cameo-sweep", flag.ContinueOnError)
	var (
		org      = fs.String("org", "cameo", "organization to sweep (one of: "+strings.Join(system.OrgNames(), ", ")+")")
		bench    = fs.String("bench", "milc,gcc,mcf", "comma-separated benchmarks")
		sweep    = fs.String("sweep", "scale", "dimension: scale, cores, ratio, seed, or an org-specific one (memcache: mempart; gemini: ways)")
		values   = fs.String("values", "512,1024,2048", "comma-separated sweep values")
		instr    = fs.Uint64("instr", 300_000, "instructions per core")
		cores    = fs.Int("cores", 16, "core count (unless swept)")
		out      = fs.String("out", "", "CSV output path (default stdout)")
		jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers")
		cachedir = fs.String("cachedir", "", "persistent result-cache directory")
		quiet    = fs.Bool("quiet", false, "suppress the stderr progress display")

		jobTimeout = fs.Duration("job-timeout", 0, "per-cell watchdog: cancel a cell that runs longer than this, reclaim its worker and fail the cell (0 = off)")
		failures   = fs.String("failures", "", "if any cell fails, also write the failure report as JSON to this path")
		chaos      = fs.String("chaos", "", "fault-injection spec for robustness drills, e.g. 'job:panic:p=0.2;cacheload:corrupt:p=0.1'")
		chaosSeed  = fs.Uint64("chaos-seed", 1, "seed for the -chaos fault schedule")

		telemetry = fs.String("telemetry", "", "write the per-cell metrics telemetry as JSON to this path")
		telTiming = fs.Bool("telemetry-timing", false, "include volatile wall-time/cache fields in -telemetry output")
	)
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cameo-sweep:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sweep:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	kind, ok := system.ParseOrg(*org)
	if !ok {
		fmt.Fprintf(os.Stderr, "cameo-sweep: unknown organization %q (have: %s)\n", *org, strings.Join(system.OrgNames(), ", "))
		return 2
	}
	var vals []uint64
	for _, v := range strings.Split(*values, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sweep: bad value:", err)
			return 2
		}
		vals = append(vals, n)
	}

	// One sweep cell: its job plus the self-describing benchmark tag.
	type cell struct {
		job runner.Job
		tag string
	}
	var cells []cell
	for _, bn := range strings.Split(*bench, ",") {
		spec, ok := workload.SpecByName(strings.TrimSpace(bn))
		if !ok {
			fmt.Fprintf(os.Stderr, "cameo-sweep: unknown benchmark %q (valid: %s)\n",
				bn, strings.Join(experiments.BenchmarkNames(), ", "))
			return 2
		}
		for _, v := range vals {
			cfg := system.Config{
				Org:          kind,
				ScaleDiv:     1024,
				Cores:        *cores,
				InstrPerCore: *instr,
			}
			if err := system.ApplySweep(&cfg, *sweep, v); err != nil {
				fmt.Fprintln(os.Stderr, "cameo-sweep:", err)
				return 2
			}
			// A configuration no cell can run (-cores 100000, a scale that
			// is not a power of two) is a usage error, not a failed cell.
			if err := cfg.WithDefaults().Validate(); err != nil {
				fmt.Fprintf(os.Stderr, "cameo-sweep: %s=%d: %v\n", *sweep, v, err)
				return 2
			}
			cells = append(cells, cell{
				job: runner.NewJob(spec, cfg),
				tag: fmt.Sprintf("%s@%s=%d", spec.Name, *sweep, v),
			})
		}
	}

	// Progress only when stderr is an interactive terminal and -quiet was
	// not given: piping the CSV to a file or running under CI must not
	// produce \r-spinner noise.
	ropts := runner.Options{
		Jobs:       *jobs,
		Progress:   runner.AutoProgress(*quiet),
		JobTimeout: *jobTimeout,
	}
	var plan *faultinject.Plan
	if *chaos != "" {
		var err error
		plan, err = faultinject.ParseSpec(*chaosSeed, *chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sweep:", err)
			return 2
		}
		ropts.Faults = plan
	}
	allJobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		allJobs[i] = c.job
	}
	if *cachedir != "" {
		cache, err := runner.OpenDiskCache(*cachedir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sweep:", err)
			return 1
		}
		defer cache.Close()
		cache.SetFaults(plan)
		ropts.Cache = cache
	}
	r := runner.New(ropts)
	runErr := r.RunAll(ctx, allJobs)
	var failedCells *runner.FailedCellsError
	switch {
	case runErr == nil:
	case errors.As(runErr, &failedCells):
		// The CSV below skips the failed cells; report + exit 3 happen
		// after the partial grid is written.
	default:
		fmt.Fprintln(os.Stderr, "cameo-sweep:", runErr)
		if errors.Is(runErr, context.Canceled) {
			return 130
		}
		return 1
	}

	// Deterministic merge: collect in sweep order (memo hits), tagging the
	// swept value into the benchmark column so the CSV is self-describing.
	// Cells that failed have no memoized result and are skipped — the
	// failure report names them.
	results := make([]system.Result, 0, len(cells))
	for _, c := range cells {
		res, ok := r.Lookup(c.job.Key())
		if !ok {
			continue
		}
		res.Benchmark = c.tag
		results = append(results, res)
	}

	if err := writeCSV(*out, results); err != nil {
		fmt.Fprintln(os.Stderr, "cameo-sweep:", err)
		return 1
	}
	if *telemetry != "" {
		if err := writeTelemetry(*telemetry, r, *telTiming); err != nil {
			fmt.Fprintln(os.Stderr, "cameo-sweep:", err)
			return 1
		}
	}

	if failedCells != nil {
		if *failures != "" {
			if err := writeFailures(*failures, failedCells.Report); err != nil {
				fmt.Fprintln(os.Stderr, "cameo-sweep:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "cameo-sweep: wrote failure report to %s\n", *failures)
		}
		fmt.Fprintln(os.Stderr, "cameo-sweep:", failedCells.Report.Summary())
		return 3
	}
	return 0
}

// writeFailures dumps the failure report as deterministic JSON.
func writeFailures(path string, rep *runner.FailureReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rep.WriteJSON(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// writeTelemetry dumps every cell's metrics snapshot plus the aggregate.
func writeTelemetry(path string, r *runner.Runner, timing bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := r.Telemetry(timing).WriteJSON(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// writeCSV emits the grid to path (stdout when empty), closing the output
// file explicitly so close errors are reported.
func writeCSV(path string, results []system.Result) error {
	if path == "" {
		return report.WriteCSV(os.Stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := report.WriteCSV(f, results)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return fmt.Errorf("closing %s: %w", path, cerr)
	}
	return nil
}
