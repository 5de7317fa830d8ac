package main

import (
	"context"
	"testing"

	"cameo/internal/runner"
	"cameo/internal/sweepapi"
)

// TestTracedCellMatchesUntraced runs fast-point cells on the traced copy of
// their organization's descriptor — including one on the FR-FCFS
// controller, whose extra instruments the device wrapper must forward —
// and requires the simulated statistics to match the untraced run's.
func TestTracedCellMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	tr := newTracer()
	for _, sweep := range []sweepapi.Request{
		sweepRequest([]string{"milc"}, []uint64{5}),
		{Org: "cache", Benchmarks: []string{"mcf"}, Scale: 4096, Cores: 4, Instr: 40000, Sweep: "frfcfs", Values: []uint64{1}},
		{Org: "tlm-dynamic", Benchmarks: []string{"lbm"}, Scale: 4096, Cores: 4, Instr: 40000},
		{Org: "baseline", Benchmarks: []string{"gcc"}, Scale: 4096, Cores: 4, Instr: 40000},
	} {
		grid, err := sweepapi.BuildGrid(sweep, 0)
		if err != nil {
			t.Fatal(err)
		}
		j := grid.Jobs[0]
		want, err := j.TryRun(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.runCell(ctx, j, 0, "test")
		if err != nil {
			t.Fatal(err)
		}
		if cellDigest(got) != cellDigest(want) {
			t.Errorf("%s: traced statistics differ from untraced", j.Name())
		}
	}
	_, aggs := tr.snapshot()
	if len(aggs) != 4 {
		t.Fatalf("%d access aggregates, want one per cell", len(aggs))
	}
	for _, a := range aggs {
		if a.OrgCalls == 0 || a.OrgTimed == 0 || a.DRAMCalls+a.CtrlCalls == 0 {
			t.Errorf("%s: no access spans recorded: %+v", a.Layer, a)
		}
	}
	if aggs[1].CtrlCalls == 0 || aggs[1].DRAMCalls != 0 {
		t.Errorf("FR-FCFS cell charged its devices to dram: %+v", aggs[1])
	}
}

// TestJobKeepsOriginalKey guards the traced run's bookkeeping: results are
// filed under the untraced cell key.
func TestJobKeepsOriginalKey(t *testing.T) {
	grid, err := sweepapi.BuildGrid(sweepRequest([]string{"gcc"}, []uint64{9}), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	m := tr.mark()
	if _, err := tr.runCell(context.Background(), grid.Jobs[0], 0, "test"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.results(m)[grid.Jobs[0].Key()]; !ok {
		t.Fatalf("traced result not filed under %s", grid.Jobs[0].Key())
	}
	var _ runner.Job = grid.Jobs[0]
}
