package main

import (
	"context"
	"math"
	"testing"
	"time"

	"cameo/internal/sweepapi"
)

// TestClassify pins the attribution rules.
func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		layer string
		gc    bool
	}{
		// Standard-library frames charge the nearest calling repo layer.
		{[]string{"math.archLog", "math.Log", "cameo/internal/workload.(*Stream).gap", "cameo/internal/cpu.(*Core).step"}, "workload", false},
		{[]string{"cameo/internal/xrand.(*Rand).Uint64", "cameo/internal/workload.(*Stream).Next"}, "workload", false},
		// Unlisted repo packages are transparent too.
		{[]string{"cameo/internal/stats.(*Hist).Observe", "cameo/internal/system.(*machine).memFunc"}, "system", false},
		// Allocation is charged to the allocating layer...
		{[]string{"runtime.mallocgc", "runtime.makeslice", "cameo/internal/vm.New"}, "vm", false},
		// ...but GC work it triggers and the scheduler stay runtime.
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "cameo/internal/vm.New"}, "runtime", true},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime", true},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime", false},
		{[]string{"runtime.memmove", "runtime.goexit"}, "runtime", false},
		{[]string{"cameo/perfbench.closedLoop.func1"}, "harness", false},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*conn).serve"}, "other", false},
		{[]string{"cameo/internal/memctrl.(*Controller).pick", "cameo/perfbench.(*tracedDevice).Access"}, "memctrl", false},
	}
	for _, c := range cases {
		layer, gc := classify(c.stack)
		if layer != c.layer || gc != c.gc {
			t.Errorf("%v: got %s gc=%v, want %s gc=%v", c.stack, layer, gc, c.layer, c.gc)
		}
	}
}

// TestAttributionReconciles profiles real simulations and requires every
// sampled nanosecond to land in exactly one bucket, so the per-layer self
// times plus other sum to the profiled CPU time, and other to stay small:
// a repository layer missing from the attribution shows up as a growing
// other.
func TestAttributionReconciles(t *testing.T) {
	var ph phases
	err := ph.run(func() error {
		deadline := time.Now().Add(2 * time.Second)
		for v := uint64(1); time.Now().Before(deadline); v++ {
			grid, err := sweepapi.BuildGrid(sweepRequest([]string{"mcf", "gcc"}, []uint64{v}), 0)
			if err != nil {
				return err
			}
			for _, j := range grid.Jobs {
				if _, err := j.TryRun(context.Background()); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	att := attribute(&ph.prof)
	if len(ph.prof.ns) < 50 {
		t.Fatalf("only %d samples", len(ph.prof.ns))
	}
	var sum int64
	var shares float64
	for _, l := range profileLayers {
		sum += att.ns[l]
		shares += att.share(l)
	}
	if sum != att.total || math.Abs(shares-1) > 1e-9 {
		t.Fatalf("layers sum to %d ns (shares %.12f), profile holds %d ns", sum, shares, att.total)
	}
	if len(att.ns) > len(profileLayers) {
		t.Fatalf("attribution charged a bucket outside profileLayers: %v", att.ns)
	}
	if raceEnabled {
		return
	}
	if o := att.share("other"); o > 0.05 {
		t.Errorf("other holds %.1f%% of a pure simulation profile", 100*o)
	}
	if s := att.share("sim") + att.share("workload") + att.share("cpu"); s < 0.2 {
		t.Errorf("sim, workload and cpu hold only %.1f%%", 100*s)
	}
	if got, cpu := float64(att.total), float64(ph.cpu); got < 0.5*cpu || got > 1.5*cpu {
		t.Errorf("profile sampled %.3f s of %.3f s process CPU", got/1e9, cpu/1e9)
	}
}
