// Package faultinject provides deterministic, seed-driven fault injection
// for chaos testing the sweep pipeline. A Plan is a set of rules, each
// bound to an injection site (job execution, cache load, cache store) and a
// fault kind (panic, error, hang, corrupt bytes, write failure). Whether a
// rule fires for a given (site, key, attempt) triple is a pure function of
// the plan seed and the triple, so a chaos run reproduces exactly — across
// reruns and across worker counts — without any shared mutable randomness.
//
// The runner consults the plan before executing a cell (SiteJobRun) and the
// disk cache consults it around entry reads and writes (SiteCacheLoad,
// SiteCacheStore), so every failure path the fault-tolerance layer handles
// — watchdog timeouts, retries, quarantine, degraded stores — can be
// exercised by tests against the real recovery code. The fleet's HTTP
// transport consults it per request (SiteFleetDispatch, SiteFleetHeartbeat,
// SiteFleetCacheFetch) with the network kinds Drop, Latency, Error5xx, and
// Partition, so a worker's turns to suspect and back to alive are
// chaos-tested against deterministic, replayable network schedules too.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names a place in the pipeline where faults can be injected.
type Site string

const (
	// SiteJobRun is consulted by the runner immediately before a cell
	// executes; Panic, Error, and Hang faults are meaningful here.
	SiteJobRun Site = "job"
	// SiteCacheLoad is consulted by the disk cache after reading an entry's
	// bytes and before verifying them; Corrupt faults flip bytes so the
	// checksum/quarantine path runs against real on-disk state.
	SiteCacheLoad Site = "cacheload"
	// SiteCacheStore is consulted by the disk cache while writing an entry;
	// WriteFail faults abort the write so the degraded-store path runs.
	SiteCacheStore Site = "cachestore"

	// SiteFleetDispatch is consulted by the fleet transport before a cell
	// dispatch (POST /sweep) leaves the coordinator; Drop, Latency,
	// Error5xx, and Partition faults are meaningful here.
	SiteFleetDispatch Site = "fleet/dispatch"
	// SiteFleetHeartbeat is consulted before a liveness or readiness probe
	// (GET /healthz, /readyz) — the failure detector's input channel, so
	// partition drills can starve it without touching dispatch traffic.
	SiteFleetHeartbeat Site = "fleet/heartbeat"
	// SiteFleetCacheFetch is consulted before a peer-cache transfer
	// (GET /cache/<hash>).
	SiteFleetCacheFetch Site = "fleet/cachefetch"
)

// Kind is the failure mode a rule injects.
type Kind int

const (
	// Panic panics with a recognizable message (runner recovers it).
	Panic Kind = iota
	// Error returns an injected error from the site.
	Error
	// Hang sleeps for the rule's Delay before continuing normally — long
	// delays simulate hung (blocked) cells for watchdog tests. The runner's
	// job site wakes the sleep on cancellation, so a hung cell is reclaimed
	// the moment its watchdog fires.
	Hang
	// Corrupt flips bytes in the data passing through the site.
	Corrupt
	// WriteFail makes the site's write fail.
	WriteFail
	// Stall busy-loops on the CPU for the rule's Delay, polling
	// cancellation between bounded slices — a compute-bound runaway cell
	// (vs Hang's blocked one), so chaos tests can deterministically
	// exercise watchdog-triggered preemption and worker reclamation
	// without depending on scheduler timing.
	Stall
	// Drop fails a transport request without sending it — the connection-
	// refused / reset shape a crashed process produces (fleet sites).
	Drop
	// Latency delays a transport request by the rule's Delay before
	// forwarding it normally — a slow network or GC pause, not a failure.
	Latency
	// Error5xx answers a transport request with a synthetic 500 without
	// reaching the server — a mid-tier proxy failure (fleet sites).
	Error5xx
	// Partition fails a transport request as if the target were
	// unreachable. Behaviourally like Drop at a single site; the distinct
	// kind exists so chaos specs read as what they model — a network
	// partition isolating a worker for a bounded window (scope it with
	// match= on the worker's host:port and max= on the attempt count).
	Partition
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Error:
		return "error"
	case Hang:
		return "hang"
	case Corrupt:
		return "corrupt"
	case WriteFail:
		return "writefail"
	case Stall:
		return "stall"
	case Drop:
		return "drop"
	case Latency:
		return "latency"
	case Error5xx:
		return "error5xx"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one injected failure, returned by Evaluate when a rule fires.
type Fault struct {
	Kind Kind
	// Delay is the hang/stall/latency duration (Hang, Stall, and Latency
	// faults; zero means "until cancelled" at the runner's job site).
	Delay time.Duration
}

// Rule describes when one fault fires.
type Rule struct {
	// Site is the injection point this rule applies to.
	Site Site
	// Kind is the failure mode.
	Kind Kind
	// Prob is the firing probability in [0,1], evaluated deterministically
	// from (plan seed, site, key, attempt). 1 fires always, 0 never.
	Prob float64
	// Match, when non-empty, restricts the rule to keys containing it as a
	// substring (cell keys embed benchmark names and config fields).
	Match string
	// MaxAttempt, when positive, fires only while attempt < MaxAttempt —
	// the fault is transient and clears after that many tries, so retry
	// convergence can be asserted exactly.
	MaxAttempt int
	// Delay is the hang/stall duration for Hang and Stall rules.
	Delay time.Duration
	// Limit, when positive, caps the rule's total fires across the plan's
	// lifetime (a global safety valve; under a concurrent runner the *which*
	// of the eligible triples consume the budget depends on scheduling, so
	// determinism-sensitive tests should prefer Prob/Match/MaxAttempt).
	Limit uint64
}

// Plan is an immutable rule set plus a seed. The zero value and the nil
// plan inject nothing. Plans are safe for concurrent use.
type Plan struct {
	seed  uint64
	rules []Rule
	fired []atomic.Uint64 // per-rule fire counts
	total atomic.Uint64
}

// NewPlan builds a plan over the rules. A nil or empty rule set is valid
// and injects nothing.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	return &Plan{seed: seed, rules: rules, fired: make([]atomic.Uint64, len(rules))}
}

// Fires returns the total number of faults the plan has injected.
func (p *Plan) Fires() uint64 {
	if p == nil {
		return 0
	}
	return p.total.Load()
}

// RuleFires returns rule i's fire count.
func (p *Plan) RuleFires(i int) uint64 {
	if p == nil || i < 0 || i >= len(p.fired) {
		return 0
	}
	return p.fired[i].Load()
}

// roll maps (seed, site, key, attempt) to a uniform value in [0,1).
// FNV-1a is deterministic and dependency-free but avalanches weakly in
// its high bits for inputs that differ only near the end (consecutive
// attempt numbers hash to near-identical top bits), so the sum is pushed
// through a splitmix64-style finalizer before scaling — without it a
// Prob rule fires in long all-or-nothing streaks across attempts.
func (p *Plan) roll(site Site, key string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", p.seed, site, key, attempt)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const scale = 1 << 53
	return float64(x>>11) / scale
}

// Evaluate reports whether a fault fires at the site for (key, attempt),
// returning the first matching rule's fault. It is nil-safe, deterministic
// in its arguments (modulo Limit accounting), and safe for concurrent use.
func (p *Plan) Evaluate(site Site, key string, attempt int) (Fault, bool) {
	if p == nil {
		return Fault{}, false
	}
	for i, r := range p.rules {
		if r.Site != site {
			continue
		}
		if r.Match != "" && !strings.Contains(key, r.Match) {
			continue
		}
		if r.MaxAttempt > 0 && attempt >= r.MaxAttempt {
			continue
		}
		if r.Prob < 1 && p.roll(site, key, attempt) >= r.Prob {
			continue
		}
		if r.Limit > 0 {
			if n := p.fired[i].Add(1); n > r.Limit {
				continue
			}
		} else {
			p.fired[i].Add(1)
		}
		p.total.Add(1)
		return Fault{Kind: r.Kind, Delay: r.Delay}, true
	}
	return Fault{}, false
}

// CorruptBytes deterministically damages data in place (used by Corrupt
// faults): it XORs a byte derived from the key into several positions.
// Damaging an empty slice is a no-op.
func CorruptBytes(data []byte, key string) {
	if len(data) == 0 {
		return
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	x := byte(h.Sum64()) | 1 // never zero: a zero XOR would be a no-op
	step := len(data)/4 + 1
	for i := 0; i < len(data); i += step {
		data[i] ^= x
	}
}
