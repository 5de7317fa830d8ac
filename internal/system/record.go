package system

import (
	"context"
	"fmt"
	"strings"

	"cameo/internal/cpu"
	"cameo/internal/workload"
)

// StreamKey identifies the request streams a run's cores consume. Core i's
// stream is a function of its spec (mix[i mod len(mix)]), ScaleDiv, i, Seed
// and the InstrPerCore budget that cuts it, and of nothing else in Config:
// no timing feeds back into what a core fetches. Runs with equal keys, on
// any organization and under any knob, therefore consume identical
// requests and can share one Recording. TryRun's spec is a one-element mix.
func StreamKey(mix []workload.Spec, cfg Config) string {
	cfg = cfg.WithDefaults()
	var b strings.Builder
	for _, sp := range mix {
		fmt.Fprintf(&b, "%+v|", sp)
	}
	fmt.Fprintf(&b, "scale=%d|cores=%d|seed=%d|instr=%d", cfg.ScaleDiv, cfg.Cores, cfg.Seed, cfg.InstrPerCore)
	return b.String()
}

// Recording is every core's request prefix for one StreamKey, recorded by
// Record and replayed through its TryRun and TryRunMix methods. It is
// immutable, so concurrent runs may replay one Recording.
type Recording struct {
	key   string
	cores []*workload.Recording
}

// Record generates each core's stream for (mix, cfg) and keeps exactly the
// prefix the core will consume (cpu.Record). Only the fields StreamKey
// names matter; the rest of cfg must merely be valid. It fails on an
// invalid mix or configuration, on ctx cancellation, and on a stream whose
// requests do not fit a recording entry.
func Record(ctx context.Context, mix []workload.Spec, cfg Config) (*Recording, error) {
	cfg = cfg.WithDefaults()
	if err := validate(mix, cfg); err != nil {
		return nil, err
	}
	rec := &Recording{key: StreamKey(mix, cfg), cores: make([]*workload.Recording, cfg.Cores)}
	for core := range rec.cores {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := workload.NewStream(mix[core%len(mix)], cfg.ScaleDiv, core, cfg.Seed)
		r, err := cpu.Record(s, cfg.InstrPerCore)
		if err != nil {
			return nil, fmt.Errorf("system: recording core %d: %w", core, err)
		}
		rec.cores[core] = r
	}
	return rec, nil
}
