// Package cpu models the processor cores of Table I: 2-wide out-of-order
// cores approximated by a retire-rate timeline with bounded memory-level
// parallelism. A core retires instructions at its peak IPC between L3
// misses, sustains up to MLP outstanding misses, and serializes behind page
// faults — the three timing feedbacks that matter to a memory-system study.
package cpu

import (
	"fmt"

	"cameo/internal/sim"
	"cameo/internal/workload"
)

// Outcome is what the memory hierarchy reports back for one request.
type Outcome struct {
	// Complete is the absolute cycle at which the demand data arrives.
	// Ignored for writebacks (posted).
	Complete uint64
	// BlockUntil, when nonzero, is the absolute cycle before which the core
	// may not issue anything else (page-fault service, which is a blocking
	// OS-level event rather than an overlappable miss).
	BlockUntil uint64
}

// MemFunc is the memory hierarchy as seen by a core: translate, fault,
// access. now is the issue cycle.
type MemFunc func(coreID int, now uint64, req workload.Request) Outcome

// Stats counts per-core activity.
type Stats struct {
	Demands         uint64
	Writebacks      uint64
	Retired         uint64
	TotalMemLatency uint64
	FinishCycle     uint64
}

// AvgMemLatency returns mean demand latency in cycles.
func (s Stats) AvgMemLatency() float64 {
	if s.Demands == 0 {
		return 0
	}
	return float64(s.TotalMemLatency) / float64(s.Demands)
}

// Config parameterizes one core.
type Config struct {
	ID int
	// IPCx2 is twice the peak IPC, letting the paper's 2-wide core (IPC 2)
	// and half-rate cores be expressed in integers. IPC = IPCx2/2.
	IPCx2 int
	// MLP is the number of overlappable outstanding demand misses.
	MLP int
	// Budget is the number of instructions the core must retire.
	Budget uint64
	// Warmup, when nonzero, marks the instruction count after which this
	// core's measurement counters reset (contents and timing state stay
	// warm) — the boundary between warm-up and the measured region.
	Warmup uint64
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.IPCx2 <= 0:
		return fmt.Errorf("cpu %d: IPCx2 must be positive", c.ID)
	case c.MLP <= 0:
		return fmt.Errorf("cpu %d: MLP must be positive", c.ID)
	case c.Budget == 0:
		return fmt.Errorf("cpu %d: zero instruction budget", c.ID)
	case c.Warmup >= c.Budget:
		return fmt.Errorf("cpu %d: warmup %d must be below budget %d", c.ID, c.Warmup, c.Budget)
	}
	return nil
}

// DefaultConfig returns the paper's 2-wide core.
func DefaultConfig(id int, mlp int, budget uint64) Config {
	return Config{ID: id, IPCx2: 4, MLP: mlp, Budget: budget}
}

// Core drives one benchmark copy. Wire it to an engine with Start; Done and
// Stats report progress.
type Core struct {
	cfg    Config
	eng    *sim.Engine
	stream workload.Source
	mem    MemFunc

	// OnWarm, when set, fires once when the core crosses its warm-up
	// boundary (used by the system layer to reset shared statistics).
	OnWarm func(coreID int, now uint64)

	warmed      bool
	retired     uint64
	outstanding []uint64 // completion cycles of in-flight demands
	blockUntil  uint64
	pending     workload.Request
	havePending bool
	done        bool
	stats       Stats

	// issueFn is the bound-method closure for issue, created once so every
	// eng.At call on the hot path passes the same func value instead of
	// allocating a fresh method value per event.
	issueFn func(now uint64)
}

// New builds a core over a request source and mem. Panics on invalid config.
func New(cfg Config, eng *sim.Engine, stream workload.Source, mem MemFunc) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{cfg: cfg, eng: eng, stream: stream, mem: mem,
		outstanding: make([]uint64, 0, cfg.MLP)}
	c.issueFn = c.issue
	return c
}

// Done reports whether the core has retired its budget.
func (c *Core) Done() bool { return c.done }

// Stats returns a snapshot of the counters.
func (c *Core) Stats() Stats { return c.stats }

// gapCycles converts an instruction gap to cycles at peak IPC.
func (c *Core) gapCycles(gap uint64) uint64 {
	// cycles = gap / (IPCx2/2) = 2*gap / IPCx2, rounded up.
	return (2*gap + uint64(c.cfg.IPCx2) - 1) / uint64(c.cfg.IPCx2)
}

// Start fetches the first request and schedules it.
func (c *Core) Start() {
	c.fetch()
	if !c.havePending {
		return
	}
	c.eng.At(c.eng.Now()+c.gapCycles(c.pending.Gap), c.issueFn)
}

// fetch pulls the next request unless the budget is exhausted. Record
// applies the same cut, so the two must change together.
func (c *Core) fetch() {
	if c.retired >= c.cfg.Budget {
		c.havePending = false
		return
	}
	c.pending = c.stream.Next()
	c.havePending = true
}

// Record reads from src exactly the requests a core with this instruction
// budget fetches, and returns them for replay. The cut is fetch's: a core
// keeps reading until the gaps of the demands it has issued reach the
// budget, and writebacks retire nothing. No timing enters the rule, so
// the prefix is the same on every memory organization.
func Record(src workload.Source, budget uint64) (*workload.Recording, error) {
	var w workload.Recorder
	for retired := uint64(0); retired < budget; {
		req := src.Next()
		if err := w.Add(req); err != nil {
			return nil, err
		}
		if !req.Write {
			retired += req.Gap
		}
	}
	return w.Finish(), nil
}

// slotFree returns (true, _) when an MLP slot is free at now, else
// (false, earliest completion) to retry at.
func (c *Core) slotFree(now uint64) (bool, uint64) {
	if len(c.outstanding) < c.cfg.MLP {
		return true, 0
	}
	earliest := c.outstanding[0]
	idx := 0
	for i, t := range c.outstanding {
		if t < earliest {
			earliest, idx = t, i
		}
	}
	if earliest <= now {
		c.outstanding[idx] = c.outstanding[len(c.outstanding)-1]
		c.outstanding = c.outstanding[:len(c.outstanding)-1]
		return true, 0
	}
	return false, earliest
}

// issue processes the pending request at the scheduled cycle.
func (c *Core) issue(now uint64) {
	if now < c.blockUntil {
		c.eng.At(c.blockUntil, c.issueFn)
		return
	}
	req := c.pending

	if req.Write {
		// Posted writeback: no slot, no stall.
		c.mem(c.cfg.ID, now, req)
		c.stats.Writebacks++
		c.fetch()
		if c.havePending {
			c.eng.At(now+c.gapCycles(c.pending.Gap), c.issueFn)
		} else {
			c.finish(now)
		}
		return
	}

	free, retry := c.slotFree(now)
	if !free {
		c.eng.At(retry, c.issueFn)
		return
	}

	out := c.mem(c.cfg.ID, now, req)
	if out.Complete < now {
		panic("cpu: memory completion precedes issue")
	}
	c.outstanding = append(c.outstanding, out.Complete)
	c.stats.Demands++
	c.stats.TotalMemLatency += out.Complete - now
	if out.BlockUntil > c.blockUntil {
		c.blockUntil = out.BlockUntil
	}

	c.retired += req.Gap
	c.stats.Retired = c.retired
	if !c.warmed && c.cfg.Warmup > 0 && c.retired >= c.cfg.Warmup {
		c.warmed = true
		c.stats.Demands = 0
		c.stats.Writebacks = 0
		c.stats.TotalMemLatency = 0
		if c.OnWarm != nil {
			c.OnWarm(c.cfg.ID, now)
		}
	}
	c.fetch()
	if c.havePending {
		next := now + c.gapCycles(c.pending.Gap)
		if next < c.blockUntil {
			next = c.blockUntil
		}
		c.eng.At(next, c.issueFn)
		return
	}
	c.finish(now)
}

// finish records completion once all outstanding misses drain.
func (c *Core) finish(now uint64) {
	end := now
	for _, t := range c.outstanding {
		if t > end {
			end = t
		}
	}
	if c.blockUntil > end {
		end = c.blockUntil
	}
	c.done = true
	c.stats.FinishCycle = end
}
