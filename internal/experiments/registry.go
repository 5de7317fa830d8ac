package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"cameo/internal/runner"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the paper artifact id ("fig13", "table3", ...).
	ID string
	// Title describes what the paper shows.
	Title string
	// Plan declares the experiment's simulation grid up front so the
	// runner can fan it across the worker pool before rendering. Nil for
	// experiments that run no simulations (spec echoes, closed forms) or
	// that manage their own prewarming.
	Plan func(s *Suite) []runner.Job
	// Run regenerates it against the suite and writes the rows/series.
	// Render functions compute any cell Plan missed, so output never
	// depends on the prewarm step.
	Run func(s *Suite, w io.Writer)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Baseline system configuration", nil, Table1},
		{"table2", "Workload characteristics (32 copies, rate mode)", nil, Table2},
		{"fig2", "Motivation: Cache vs TLM vs DoubleUse speedups", PlanFig2, Fig2},
		{"fig3", "DRAM capacity and bandwidth specifications", nil, Fig3},
		{"fig8", "Analytic access latency of LLT designs", nil, Fig8},
		{"fig9", "Speedup of Ideal / Embedded / Co-Located LLT", PlanFig9, Fig9},
		{"fig12", "Speedup with SAM / LLP / Perfect prediction", PlanFig12, Fig12},
		{"table3", "Accuracy of the Line Location Predictor", PlanTable3, Table3},
		{"fig13", "Headline speedups: Cache, TLM, CAMEO, DoubleUse", PlanFig13, Fig13},
		{"table4", "Bandwidth usage in memory and storage", PlanTable4, Table4},
		{"fig14", "Normalized power and energy-delay product", PlanFig14, Fig14},
		{"fig15", "Optimized page placement: TLM-Freq / TLM-Oracle vs CAMEO", PlanFig15, Fig15},
		// Extensions beyond the paper's figures (DESIGN.md; EXPERIMENTS.md).
		{"ext-hybrid", "Extension: frequency-filtered CAMEO swaps (Section VI-D)", PlanExtHybrid, ExtHybrid},
		{"ext-threshold", "Extension: TLM-Dynamic migration-threshold sweep", PlanExtThreshold, ExtThreshold},
		{"ext-ratio", "Extension: stacked share sweep at fixed 16 GB total", PlanExtRatio, ExtRatio},
		{"ext-scale", "Extension: headline orderings at double capacity scale", nil, ExtScale},
		{"ext-mix", "Extension: multi-programmed workload mixes", PlanExtMix, ExtMix},
		{"ext-controller", "Extension: write-buffered memory controller", PlanExtController, ExtController},
		{"ext-dramcache", "Extension: Loh-Hill vs Alloy DRAM caches vs CAMEO", PlanExtDRAMCache, ExtDRAMCache},
		{"ext-knobs", "Extension: model-fidelity knobs (refresh, TLB, L3)", PlanExtKnobs, ExtKnobs},
		{"ext-lltcache", "Extension: SRAM entry cache for the Embedded LLT", PlanExtLLTCache, ExtLLTCache},
		{"ext-neworgs", "Extension: MemCache and Gemini vs Alloy and CAMEO", PlanExtNewOrgs, ExtNewOrgs},
	}
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// PlannedJobs collects the up-front simulation grid of the given
// experiments, in plan order. Experiments with nil Plan (spec echoes,
// self-prewarming renders) contribute nothing; any cells they compute at
// render time are still cached, just not listed here.
func PlannedJobs(s *Suite, exps []Experiment) []runner.Job {
	plans := make([][]runner.Job, len(exps))
	n := 0
	for i, e := range exps {
		if e.Plan != nil {
			plans[i] = e.Plan(s)
			n += len(plans[i])
		}
	}
	jobs := make([]runner.Job, 0, n)
	for _, p := range plans {
		jobs = append(jobs, p...)
	}
	return jobs
}

// RunExperiment prewarms the experiment's planned grid across the suite's
// worker pool, then renders it. Cancellation (Ctrl-C) drains the pool and
// returns ctx.Err(); a cell that panicked surfaces as an error. Under
// keep-going options, an experiment whose cells failed degrades to a
// bracketed note instead of aborting the suite — the failed cells stay
// quarantined in the suite's FailureReport.
func RunExperiment(ctx context.Context, s *Suite, e Experiment, w io.Writer) (err error) {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	s.bind(ctx)
	var degraded *runner.FailedCellsError
	if e.Plan != nil {
		if perr := s.Prewarm(ctx, e.Plan(s)); perr != nil {
			if !s.opts.KeepGoing || !errors.As(perr, &degraded) {
				return fmt.Errorf("experiments: %s: %w", e.ID, perr)
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(runError)
			if !ok {
				panic(r)
			}
			if s.opts.KeepGoing {
				// The render pulled a cell that cannot be computed; leave a
				// note and keep the suite going.
				fmt.Fprintf(w, "[%s skipped: %s]\n", e.ID, errorFirstLine(re.err))
				err = nil
				return
			}
			err = fmt.Errorf("experiments: %s: %w", e.ID, re.err)
		}
	}()
	fmt.Fprintf(w, "\n### %s: %s\n\n", e.ID, e.Title)
	if degraded != nil {
		fmt.Fprintf(w, "[degraded: %s]\n\n", degraded.Report.Summary())
	}
	e.Run(s, w)
	return nil
}

// errorFirstLine trims an error to its first line for in-band notes (panic
// messages carry stacks, which are non-deterministic).
func errorFirstLine(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

// RunAll regenerates every experiment in paper order.
func RunAll(ctx context.Context, s *Suite, w io.Writer) error {
	for _, e := range All() {
		if err := RunExperiment(ctx, s, e, w); err != nil {
			return err
		}
	}
	return nil
}
