package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"cameo/internal/experiments"
	"cameo/internal/runner"
	"cameo/internal/stats"
	"cameo/internal/system"
)

// The paper workload regenerates Figure 13 and the ext-controller table in
// one experiments suite, so the cells both share run once, exactly as
// paperbench does: the bench_test.go subset at the paper's 1/1024 scale
// and 32 cores, one simulation worker, no result cache.
var (
	paperBenchmarks  = []string{"mcf", "lbm", "milc", "gcc", "sphinx3"}
	paperExperiments = []string{"fig13", "ext-controller"}
)

// paperInstr keeps one regeneration near two seconds on a 2-vCPU host, so a
// run holds enough rounds for a steady median.
const paperInstr = 50_000

// setupRepeats is how many times each round times suite construction and
// grid planning; the phase takes microseconds, so one sample per round
// would be mostly clock noise.
const setupRepeats = 25

// fig13Columns are Figure 13's designs in PlanFig13's per-benchmark order
// (the baseline comes first), with the paper's overall gmean speedups.
var fig13Columns = []struct {
	label string
	paper float64
}{{"Cache", 1.50}, {"TLM-Static", 1.33}, {"TLM-Dynamic", 1.50}, {"CAMEO", 1.78}, {"DoubleUse", 1.82}}

func paperPoint() string {
	return fmt.Sprintf("scale=1024 cores=32 instr=%d bench=%s exp=%s", paperInstr,
		strings.Join(paperBenchmarks, ","), strings.Join(paperExperiments, ","))
}

// suiteSeed maps the workload seed onto the suite seed; seed 0 is the
// suite's own default, the calibrated point of EXPERIMENTS.md.
func suiteSeed(seed uint64) uint64 { return 0xCA3E0 + seed }

func paperOptions(seed uint64) experiments.Options {
	return experiments.Options{
		ScaleDiv:     1024,
		Cores:        32,
		InstrPerCore: paperInstr,
		Seed:         suiteSeed(seed),
		Benchmarks:   paperBenchmarks,
		Jobs:         1,
	}
}

// paperPlan is the workload's set-up: build the suite and plan its grid.
func paperPlan(seed uint64) (*experiments.Suite, []experiments.Experiment, []runner.Job, error) {
	s, err := experiments.NewSuite(paperOptions(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	exps := make([]experiments.Experiment, len(paperExperiments))
	for i, id := range paperExperiments {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, nil, nil, fmt.Errorf("unknown experiment %s", id)
		}
		exps[i] = e
	}
	return s, exps, experiments.PlannedJobs(s, exps), nil
}

// uniqueJobs drops repeated cells, keeping plan order.
func uniqueJobs(jobs []runner.Job) []runner.Job {
	seen := map[string]bool{}
	var out []runner.Job
	for _, j := range jobs {
		if k := j.Key(); !seen[k] {
			seen[k] = true
			out = append(out, j)
		}
	}
	return out
}

// paperReference simulates every planned cell directly. It doubles as the
// warm-up before the measured rounds.
func paperReference(ctx context.Context, jobs []runner.Job) (map[string]system.Result, error) {
	ref := map[string]system.Result{}
	for _, j := range uniqueJobs(jobs) {
		res, err := j.TryRun(ctx)
		if err != nil {
			return nil, err
		}
		ref[j.Key()] = res
	}
	return ref, nil
}

func digestsOf(results map[string]system.Result) map[string]string {
	out := make(map[string]string, len(results))
	for k, r := range results {
		out[k] = cellDigest(r)
	}
	return out
}

// fig13Gmeans computes Figure 13's overall gmean speedup per design from a
// result set, following PlanFig13's layout: per benchmark, the baseline
// then one cell per design.
func fig13Gmeans(seed uint64, results map[string]system.Result) (map[string]float64, error) {
	s, err := experiments.NewSuite(paperOptions(seed))
	if err != nil {
		return nil, err
	}
	e, _ := experiments.ByID("fig13")
	jobs := e.Plan(s)
	width := 1 + len(fig13Columns)
	if len(jobs) != width*len(paperBenchmarks) {
		return nil, fmt.Errorf("fig13 plans %d cells, want %d", len(jobs), width*len(paperBenchmarks))
	}
	speedups := make([][]float64, len(fig13Columns))
	for b := 0; b < len(paperBenchmarks); b++ {
		base, ok := results[jobs[b*width].Key()]
		if !ok {
			return nil, fmt.Errorf("no result for %s", jobs[b*width].Name())
		}
		for c := range fig13Columns {
			j := jobs[b*width+1+c]
			r, ok := results[j.Key()]
			if !ok {
				return nil, fmt.Errorf("no result for %s", j.Name())
			}
			speedups[c] = append(speedups[c], stats.Speedup(base.Cycles, r.Cycles))
		}
	}
	out := map[string]float64{}
	for c, col := range fig13Columns {
		out[col.label] = stats.Gmean(speedups[c])
	}
	return out, nil
}

// fig13Err is the mean relative distance of the measured gmeans from the
// paper's.
func fig13Err(g map[string]float64) float64 {
	var sum float64
	for _, col := range fig13Columns {
		sum += math.Abs(g[col.label]-col.paper) / col.paper
	}
	return sum / float64(len(fig13Columns))
}

// paperRound is one measured regeneration.
type paperRound struct {
	setups  []float64
	wall    time.Duration
	cpu     time.Duration
	rss     uint64
	results map[string]system.Result
	cellMS  []float64
}

func runPaperRound(ctx context.Context, seed uint64) (*paperRound, error) {
	r := &paperRound{}
	var (
		s    *experiments.Suite
		exps []experiments.Experiment
		err  error
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, exps, _, err = paperPlan(seed)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
	}
	runtime.GC()
	resetSelfPeakRSS()
	cpu0, t0 := selfCPU(), time.Now()
	for _, e := range exps {
		if err := experiments.RunExperiment(ctx, s, e, io.Discard); err != nil {
			return nil, err
		}
	}
	r.wall, r.cpu = time.Since(t0), selfCPU()-cpu0
	if r.rss, err = peakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	// Results and Telemetry both list the memoized cells in key order.
	results, cells := s.Results(), s.Telemetry(true).Cells
	if len(results) != len(cells) {
		return nil, fmt.Errorf("suite reports %d results for %d cells", len(results), len(cells))
	}
	r.results = make(map[string]system.Result, len(cells))
	for i, c := range cells {
		r.results[c.Key] = results[i]
		r.cellMS = append(r.cellMS, float64(c.WallNS)/1e6)
	}
	return r, nil
}

// checkResults counts one gate operation per reference cell: the cell must
// be present with the reference's simulated statistics.
func (g *gate) checkResults(results map[string]system.Result, ref map[string]string) {
	for _, k := range sortedKeys(ref) {
		res, ok := results[k]
		g.check(ok && cellDigest(res) == ref[k], "cell %s differs from the reference", k)
	}
	if len(results) != len(ref) {
		g.fail("round produced %d cells, the reference %d", len(results), len(ref))
	}
}

// paperPrepare computes the reference, checks it against the record, and
// returns the digests every later round must reproduce.
func paperPrepare(ctx context.Context, cfg config, g *gate) (map[string]system.Result, map[string]string, error) {
	_, _, jobs, err := paperPlan(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	ref, err := paperReference(ctx, jobs)
	if err != nil {
		return nil, nil, err
	}
	digests := digestsOf(ref)
	rec, err := loadRecord(cfg.records, "paper", cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	g.checkRecord(rec, paperPoint(), digests)
	gm, err := fig13Gmeans(cfg.seed, ref)
	if err != nil {
		return nil, nil, err
	}
	for _, col := range fig13Columns {
		fmt.Fprintf(cfg.log, "fig13 %-12s gmean %.4f (paper %.2f)\n", col.label, gm[col.label], col.paper)
		if rec != nil {
			g.check(rec.Fig13[col.label] == gm[col.label], "fig13 %s gmean %v, recorded %v", col.label, gm[col.label], rec.Fig13[col.label])
		}
	}
	fmt.Fprintf(cfg.log, "fig13_err %.4f\n", fig13Err(gm))
	return ref, digests, nil
}

func measurePaper(ctx context.Context, cfg config) (*outcome, error) {
	g := &gate{}
	ref, digests, err := paperPrepare(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	var rs rounds
	start := time.Now()
	for len(rs.wall) < 3 || time.Since(start).Seconds() < cfg.seconds {
		rs.calibrate()
		r, err := runPaperRound(ctx, cfg.seed)
		if err != nil {
			return nil, err
		}
		g.checkResults(r.results, digests)
		rs.setup = append(rs.setup, r.setups...)
		rs.latMS = append(rs.latMS, r.cellMS...)
		rs.add(r.wall, r.cpu, r.rss, simRequests(ref), len(r.results))
	}
	return &outcome{gate: g, metrics: rs.endToEnd(), rounds: &rs}, nil
}

// simRequests totals the simulated memory requests of a result set.
func simRequests(results map[string]system.Result) float64 {
	var n uint64
	for _, r := range results {
		n += r.Demands + r.Writebacks
	}
	return float64(n)
}

func tracePaper(ctx context.Context, cfg config) (*outcome, error) {
	g := &gate{}
	_, digests, err := paperPrepare(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	var untraced []float64
	for i := 0; i < 2; i++ {
		r, err := runPaperRound(ctx, cfg.seed)
		if err != nil {
			return nil, err
		}
		g.checkResults(r.results, digests)
		untraced = append(untraced, r.wall.Seconds())
	}

	_, _, jobs, err := paperPlan(cfg.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var ph phases
	var last map[string]system.Result
	start := time.Now()
	for tracedPhaseOpen(start, cfg, len(ph.walls)) {
		m := tr.mark()
		err := ph.run(func() error {
			round, t0 := tr.newID(), time.Now()
			for _, j := range uniqueJobs(jobs) {
				if _, err := tr.runCell(ctx, j, round, "paper"); err != nil {
					return err
				}
			}
			tr.add(span{ID: round, Name: "paper.round", Req: "paper", Start: tr.since(t0), End: tr.since(time.Now())})
			return nil
		})
		if err != nil {
			return nil, err
		}
		last = tr.results(m)
		g.checkResults(last, digests)
	}
	gm, err := fig13Gmeans(cfg.seed, last)
	if err != nil {
		return nil, err
	}
	if err := tr.write(cfg.traceDir, "paper", cfg.seed); err != nil {
		return nil, err
	}
	return &outcome{gate: g, metrics: layerMetrics(layerInput{
		phases:        &ph,
		rounds:        len(ph.walls),
		tracer:        tr,
		cells:         last,
		cellsExecuted: float64(len(last)),
		overhead:      median(ph.walls) / median(untraced),
		fig13Err:      fig13Err(gm),
	}, cfg.log)}, nil
}
