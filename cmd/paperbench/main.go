// Command paperbench regenerates the tables and figures of the CAMEO paper
// (MICRO 2014) from the simulator in this repository.
//
// Usage:
//
//	paperbench                          # run every experiment
//	paperbench -exp fig13               # one experiment
//	paperbench -exp fig12 -bench milc,mcf -scale 512 -instr 200000
//	paperbench -jobs 8 -cachedir ~/.cache/cameo   # parallel + persistent cache
//	paperbench -cachedir /tmp/c                   # rerunning continues an interrupted run
//	paperbench -job-timeout 5m -failures failed.json
//
// Output is fixed-width text; each experiment prints the same rows/series
// the paper reports (see DESIGN.md for the per-experiment index). Each
// experiment's simulation grid fans out across -jobs workers; the output
// is byte-identical for any worker count. With -cachedir, already-simulated
// cells are loaded from disk instead of re-run, so rerunning an interrupted
// run over the same directory simulates only the cells it had not finished.
// A cell that fails (a panic, a -job-timeout) is attempted once: the other
// cells all finish, the experiments that needed it print a note, -failures
// writes the failure report, and the exit status is 3. Failed cells are
// never cached, so a rerun over the same -cachedir retries only them.
// Exit codes: 0 success, 1 runtime error, 2 bad flags or an operating
// point no cell can run, 3 failed cells, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"cameo/internal/experiments"
	"cameo/internal/profiling"
	"cameo/internal/report"
	"cameo/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program; main only translates its result into an exit
// status. Error paths return instead of calling os.Exit so deferred cleanup
// (in particular stopping -cpuprofile, whose file is truncated garbage unless
// pprof.StopCPUProfile runs) always executes.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
		scale    = fs.Uint64("scale", 0, "capacity scale divisor (default 1024)")
		cores    = fs.Int("cores", 0, "rate-mode core count (default 32)")
		instr    = fs.Uint64("instr", 0, "instructions per core (default 600000)")
		seed     = fs.Uint64("seed", 0, "random seed")
		bench    = fs.String("bench", "", "comma-separated benchmark subset (default: all of Table II)")
		csv      = fs.String("csv", "", "also dump the raw result grid as CSV to this path")
		jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers")
		cachedir = fs.String("cachedir", "", "persistent result-cache directory (skip already-simulated cells)")
		quiet    = fs.Bool("quiet", false, "suppress the stderr progress display")

		jobTimeout = fs.Duration("job-timeout", 0, "per-cell watchdog: cancel a cell that runs longer than this and fail it (0 = off)")
		failures   = fs.String("failures", "", "if any cell fails, also write the failure report as JSON to this path")

		telemetry = fs.String("telemetry", "", "write the per-cell metrics telemetry as JSON to this path")
		telTiming = fs.Bool("telemetry-timing", false, "include volatile wall-time/cache fields in -telemetry output (breaks byte-determinism)")
	)
	prof := profiling.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// Ctrl-C cancels the context; the worker pool drains cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.Options{
		ScaleDiv:     *scale,
		Cores:        *cores,
		InstrPerCore: *instr,
		Seed:         *seed,
		Jobs:         *jobs,
		JobTimeout:   *jobTimeout,
	}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	// Progress is interactive-only: silenced by -quiet and whenever stderr
	// is not a terminal (CI logs, redirections).
	opts.Progress = runner.AutoProgress(*quiet)
	if *cachedir != "" {
		cache, err := runner.OpenDiskCache(*cachedir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		defer cache.Close()
		opts.Cache = cache
	}

	selected := experiments.All()
	if *exp != "all" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (have: %s)\n",
				*exp, strings.Join(experiments.IDs(), ", "))
			return 2
		}
		selected = []experiments.Experiment{e}
	}

	suite, err := experiments.NewSuite(opts)
	if err != nil {
		// Unknown benchmark names (the error carries the valid listing) or
		// an unusable operating point.
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		return 2
	}
	experiments.Describe(suite, os.Stdout)

	for _, e := range selected {
		if err = experiments.RunExperiment(ctx, suite, e, os.Stdout); err != nil {
			break
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}

	if *csv != "" {
		if err := writeCSV(*csv, suite); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		fmt.Printf("\nwrote %d raw results to %s\n", len(suite.Results()), *csv)
	}
	if *telemetry != "" {
		if err := writeTelemetry(*telemetry, suite, *telTiming); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		fmt.Printf("\nwrote telemetry to %s\n", *telemetry)
	}

	if rep := suite.FailureReport(); rep != nil {
		// Every healthy cell completed; report the rest and exit non-zero
		// so scripts notice. Failures are never cached, so a rerun over the
		// same -cachedir retries only them.
		if *failures != "" {
			if werr := writeFailures(*failures, rep); werr != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", werr)
				return 1
			}
			fmt.Fprintf(os.Stderr, "paperbench: wrote failure report to %s\n", *failures)
		}
		fmt.Fprintln(os.Stderr, "paperbench:", rep.Summary())
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

// writeTelemetry dumps the suite's per-cell metrics snapshots. Without
// -telemetry-timing the file is byte-identical across runs and -jobs
// settings (the runner's determinism contract).
func writeTelemetry(path string, suite *experiments.Suite, timing bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := suite.Telemetry(timing).WriteJSON(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// writeCSV exports the raw grid, closing the file explicitly so a close
// failure (full disk, NFS flush) is reported instead of silently dropped.
func writeCSV(path string, suite *experiments.Suite) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := report.WriteCSV(f, suite.Results())
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return fmt.Errorf("closing %s: %w", path, cerr)
	}
	return nil
}
