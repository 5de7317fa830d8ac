// Package runner orchestrates grids of simulation jobs: it fans
// (benchmark, configuration) cells across a worker pool, deduplicates
// identical cells (singleflight), recovers panics into errors, honours
// context cancellation, reports live progress, and merges results into a
// deterministic key-ordered grid so parallel output is byte-identical to a
// serial run. An optional persistent on-disk cache lets repeated
// invocations skip already-simulated cells.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"cameo/internal/system"
	"cameo/internal/workload"
)

// cacheSchema versions the canonical cell encoding. Bump it whenever the
// meaning of a cached result changes (new Config field, Result layout
// change that affects consumers), so stale persistent caches miss cleanly.
const cacheSchema = "cameo-cell-v2" // v2: Result gained the Metrics snapshot

// Job is one simulation cell: a workload (a single rate-mode benchmark or
// a multi-programmed mix) under one system configuration.
type Job struct {
	// Specs is the workload: one spec = rate mode (every core runs a
	// copy), several = a multi-programmed mix (core i runs spec i mod n).
	Specs []workload.Spec
	// Cfg is the full system configuration for the cell.
	Cfg system.Config
}

// NewJob builds a rate-mode cell.
func NewJob(spec workload.Spec, cfg system.Config) Job {
	return Job{Specs: []workload.Spec{spec}, Cfg: cfg}
}

// MixJob builds a multi-programmed-mix cell.
func MixJob(mix []workload.Spec, cfg system.Config) Job {
	return Job{Specs: mix, Cfg: cfg}
}

// Name is the short human-facing label used in progress and error text.
func (j Job) Name() string {
	names := make([]string, len(j.Specs))
	for i, sp := range j.Specs {
		names[i] = sp.Name
	}
	return fmt.Sprintf("%s/%s", strings.Join(names, "+"), j.Cfg.Org)
}

// Key returns the canonical cell key: the workload names plus every
// system.Config field, rendered deterministically. Two jobs share a key iff
// system.Run/RunMix would produce identical results for them (workload
// specs are a fixed table keyed by name, and simulation is deterministic in
// the configuration). keyFieldCount and TestKeyCoversEveryConfigField keep
// this in lockstep with the Config struct.
func (j Job) Key() string {
	var b strings.Builder
	for i, sp := range j.Specs {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(sp.Name)
	}
	c := j.Cfg.WithDefaults()
	fmt.Fprintf(&b,
		"|org=%d|llt=%d|pred=%d|scale=%d|cores=%d|instr=%d|seed=%d|epoch=%d"+
			"|l3=%t|migthresh=%d|lltcache=%d|hotswap=%d|warmup=%d"+
			"|refresh=%t|wq=%t|frfcfs=%t|tlb=%t|stkdiv=%d",
		c.Org, c.LLT, c.Pred, c.ScaleDiv, c.Cores, c.InstrPerCore, c.Seed,
		c.EpochAccesses, c.UseL3, c.MigrationThreshold, c.LLTCacheEntries,
		c.HotSwapThreshold, c.WarmupInstr, c.Refresh, c.WriteBuffered,
		c.FRFCFS, c.UseTLB, c.StackedDivisor)
	// Organization-specific knobs are appended only when set: zero means
	// "the organization's default" and is never filled by WithDefaults, so
	// every cell key that predates the knob stays byte-identical (no
	// persistent-cache invalidation when a knob is introduced).
	if c.MemPartPct != 0 {
		fmt.Fprintf(&b, "|mempart=%d", c.MemPartPct)
	}
	if c.HybridWays != 0 {
		fmt.Fprintf(&b, "|hways=%d", c.HybridWays)
	}
	return b.String()
}

// keyFieldCount is the number of system.Config fields Key encodes; a test
// fails when Config grows without this (and Key) being updated.
const keyFieldCount = 20

// Hash returns the hex SHA-256 of the schema-versioned canonical key — the
// filename-safe identity the persistent cache stores cells under.
func (j Job) Hash() string {
	sum := sha256.Sum256([]byte(cacheSchema + "\n" + j.Key()))
	return hex.EncodeToString(sum[:])
}

// Run executes the cell synchronously in the calling goroutine, panicking
// on invalid configurations (the historical behaviour; the runner prefers
// TryRun).
func (j Job) Run() system.Result {
	if len(j.Specs) == 1 {
		return system.Run(j.Specs[0], j.Cfg)
	}
	return system.RunMix(j.Specs, j.Cfg)
}

// TryRun executes the cell, surfacing configuration and geometry problems
// as errors instead of panics. Those errors are marked Permanent, which the
// failure report classifies as invalid-config. ctx cancellation preempts
// the simulation's event loop cooperatively and comes back as a
// *CancelledError (never Permanent: the configuration was fine, the run was
// interrupted).
func (j Job) TryRun(ctx context.Context) (system.Result, error) {
	return j.tryRun(ctx, nil)
}

// tryRun is TryRun with the cores replaying rec, which must be nil or a
// recording of the job's streams (system.Record).
func (j Job) tryRun(ctx context.Context, rec *system.Recording) (system.Result, error) {
	var (
		res system.Result
		err error
	)
	if len(j.Specs) == 1 {
		res, err = rec.TryRun(ctx, j.Specs[0], j.Cfg)
	} else {
		res, err = rec.TryRunMix(ctx, j.Specs, j.Cfg)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return system.Result{}, &CancelledError{Name: j.Name(), Cause: err}
		}
		return system.Result{}, Permanent(fmt.Errorf("job %s: %w", j.Name(), err))
	}
	return res, nil
}
