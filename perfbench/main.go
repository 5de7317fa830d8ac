// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator through its public entry points in one of three workloads and
// prints every metric with its unit, then one JSON result line:
//
//	perfbench -workload paper|serve|fleet -seed N -seconds S -trace 0|1
//
// paper regenerates Figure 13 and the ext-controller table in one
// experiments suite; serve runs two closed-loop clients against one cameod;
// fleet sends sweeps to a cameod coordinator fronting two cameod workers.
// With -trace 0 the end-to-end metrics are measured; with -trace 1 a
// separate traced run attributes host time and work counts to each module.
// Every run checks the program's outputs against an in-process reference
// and, where one exists, a recorded result; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64
	// cameod is the built cameod binary the serve and fleet workloads
	// launch; work is a scratch directory (result caches) inside the
	// checkout; records holds the recorded outputs.
	cameod  string
	work    string
	records string
	// traceDir receives the span file of a traced run.
	traceDir string
	log      io.Writer
}

// outcome is what a workload run returns: the correctness tally, the
// metrics of the requested mode, and for an untraced run the rounds
// behind them.
type outcome struct {
	gate    *gate
	metrics map[string]metric
	rounds  *rounds
}

// workloads maps each name to its untraced and traced runs.
var workloads = map[string]struct {
	measure func(ctx context.Context, cfg config) (*outcome, error)
	traced  func(ctx context.Context, cfg config) (*outcome, error)
}{
	"paper": {measurePaper, tracePaper},
	"serve": {measureServe, traceServe},
	"fleet": {measureFleet, traceFleet},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: paper, serve or fleet")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed; the program sees only the inputs generated from it")
		seconds = fs.Float64("seconds", 10, "length of the measured phase in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		cameod  = fs.String("cameod", "", "cameod binary (serve and fleet)")
		work    = fs.String("work", filepath.Join(".bench_build", "perfbench", "work"), "scratch directory for result caches and traces")
		records = fs.String("records", filepath.Join("perfbench", "records"), "directory of recorded outputs")
		record  = fs.Bool("record", false, "write the recorded outputs for -workload and -seed instead of measuring")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload paper|serve|fleet, -trace 0|1 and -seconds > 0\n")
		return 2
	}
	if (*name == "serve" || *name == "fleet") && *cameod == "" && !*record {
		fmt.Fprintf(os.Stderr, "perfbench: -workload %s needs -cameod\n", *name)
		return 2
	}
	runDir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	cfg := config{
		seed:     *seed,
		seconds:  *seconds,
		cameod:   *cameod,
		work:     runDir,
		records:  *records,
		traceDir: filepath.Join(*work, "..", "trace"),
		log:      os.Stderr,
	}
	ctx := context.Background()

	if *record {
		if err := writeRecord(ctx, *name, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	facts := collectFacts()
	measure := wl.measure
	if *trace == 1 {
		measure = wl.traced
	}
	out, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printFacts(stdout, *name, *seed, *trace, facts)

	res := result{
		Correct:   out.gate.failed == 0,
		Attempted: out.gate.attempted,
		Failed:    out.gate.failed,
		Metrics:   out.metrics,
	}
	if out.rounds != nil {
		if err := out.rounds.checkAccounting(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: rejecting own output:", err)
			return 1
		}
		fmt.Fprintf(stdout, "  %s\n", out.rounds.summary())
	}
	printMetrics(stdout, res.Metrics)
	out.gate.report(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printFacts(w io.Writer, name string, seed uint64, trace int, facts map[string]string) {
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "workload %s seed %d trace %d at %s\n", name, seed, trace, time.Now().UTC().Format(time.RFC3339))
	for _, k := range keys {
		fmt.Fprintf(w, "  fact %-14s %s\n", k, facts[k])
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
