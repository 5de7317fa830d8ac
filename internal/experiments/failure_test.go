package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cameo/internal/faultinject"
	"cameo/internal/runner"
	"cameo/internal/system"
)

// TestSuiteAttemptsFailedCellsOnce runs every experiment over sphinx3 and
// milc with each milc Baseline cell forced to fail. However many plans and
// renders ask for a failed cell, it is attempted once; every experiment
// still renders or leaves a note; and only an experiment whose own plan
// holds a failed cell is marked degraded.
func TestSuiteAttemptsFailedCellsOnce(t *testing.T) {
	s := MustNewSuite(Options{ScaleDiv: 4096, Cores: 4, InstrPerCore: 40_000,
		Benchmarks: []string{"sphinx3", "milc"}, Jobs: 2})
	match := fmt.Sprintf("milc|org=%d|", system.Baseline)
	plan := faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteJobRun, Kind: faultinject.Error, Prob: 1, Match: match,
	})
	s.run = runner.New(runner.Options{Jobs: 2, Faults: plan})

	for _, e := range All() {
		var b strings.Builder
		if err := RunExperiment(context.Background(), s, e, &b); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := b.String()
		if e.Plan == nil {
			continue
		}
		ownFailure := false
		for _, j := range e.Plan(s) {
			if strings.Contains(j.Key(), match) {
				ownFailure = true
			}
		}
		if degraded := strings.Contains(out, "[degraded: "); degraded != ownFailure {
			t.Errorf("%s: degraded note = %t, but its plan holds a failed cell = %t:\n%s", e.ID, degraded, ownFailure, out)
		}
	}

	rep := s.FailureReport()
	if rep == nil || rep.Failed != 7 {
		t.Fatalf("failure report = %+v, want the 7 milc Baseline cells", rep)
	}
	if got := plan.Fires(); got != 7 {
		t.Fatalf("failed cells attempted %d times, want 7 (once each)", got)
	}
}
