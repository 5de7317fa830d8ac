package fleet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cameo/internal/metrics"
)

// MemberState is a worker's position in the failure-detection lifecycle.
//
//	alive ──misses──▶ suspect ──more misses──▶ dead
//	  ▲                  │                       │
//	  └──── probe ok ────┘           probe ok ───┘  (re-admitted fresh)
//
// Only the suspect→dead edge triggers a re-shard; a suspect keeps its ring
// arcs and its queued cells (stealable by idle workers), so a dropped
// connection or a slow GC pause costs latency, never placement.
type MemberState int

const (
	// StateAlive: heartbeats answer; the worker receives dispatches.
	StateAlive MemberState = iota
	// StateSuspect: heartbeats are missing but the suspicion window has
	// not elapsed. New dispatches pause; ring membership is unchanged.
	StateSuspect
	// StateDead: the suspicion window elapsed. The worker left the ring,
	// its cells re-sharded. It is still probed (with backoff) so a healed
	// partition re-admits it — counted as a false death.
	StateDead
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("MemberState(%d)", int(s))
}

// transition is what a probe result changed, returned so the coordinator
// can apply side effects (pause, re-shard, re-admit) outside the
// membership lock.
type transition int

const (
	transNone transition = iota
	// transSuspected: alive → suspect (pause dispatch, keep ring arcs).
	transSuspected
	// transDied: suspect → dead (leave ring, re-shard its cells).
	transDied
	// transRecovered: suspect → alive (resume dispatch; nothing moved).
	transRecovered
	// transRevived: dead → alive via a successful probe — the death was
	// false (partition outlasted the window). Re-admit as a fresh member.
	transRevived
)

// member is one worker's detector state.
type member struct {
	state     MemberState
	misses    int           // consecutive failed probes
	backoff   time.Duration // current suspect/dead probe backoff
	nextProbe time.Time     // due time for suspect/dead probes
}

// membership is the coordinator's failure detector and roster: the
// three-state lifecycle per worker and heartbeat-miss accounting with
// jittered probe backoff. All methods are safe for concurrent use; none
// calls out while holding the lock, so callers apply transitions' side
// effects themselves.
type membership struct {
	suspectMisses int
	deadMisses    int
	interval      time.Duration

	mu      sync.Mutex
	members map[string]*member
	rng     *rand.Rand

	joins       *metrics.Counter
	suspects    *metrics.Counter
	falseDeaths *metrics.Counter
}

// newMembership builds the detector. suspectMisses is the consecutive
// heartbeat misses that turn alive into suspect (<=0: 2); deadMisses the
// total consecutive misses that turn suspect into dead (<= suspectMisses:
// suspectMisses+4). interval is the base heartbeat cadence the probe
// backoff scales from. seed drives the probe jitter (0: 1).
func newMembership(suspectMisses, deadMisses int, interval time.Duration, seed uint64, sc *metrics.Scope) *membership {
	if suspectMisses <= 0 {
		suspectMisses = 2
	}
	if deadMisses <= suspectMisses {
		deadMisses = suspectMisses + 4
	}
	if interval <= 0 {
		interval = time.Second
	}
	if seed == 0 {
		seed = 1
	}
	m := &membership{
		suspectMisses: suspectMisses,
		deadMisses:    deadMisses,
		interval:      interval,
		members:       map[string]*member{},
		// Seeded from the fleet chaos seed: jitter decorrelates probe
		// bursts, it does not need to be unpredictable — and deriving the
		// stream from the drill's seed keeps every chaos run replayable
		// while distinct seeds still explore distinct probe timings.
		rng: rand.New(rand.NewSource(int64(seed))),
	}
	if sc != nil {
		m.joins = sc.Counter("joins")
		m.suspects = sc.Counter("suspects")
		m.falseDeaths = sc.Counter("false_deaths")
	}
	return m
}

// inc is nil-safe (membership built without a scope in unit tests).
func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// admit registers a roster worker (the -workers list at startup) as alive. Admitting a known worker is a
// no-op: a dead worker comes back only through a successful probe.
func (m *membership) admit(worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[worker]; ok {
		return
	}
	m.members[worker] = &member{state: StateAlive}
	inc(m.joins)
}

// forceDead declares a worker dead immediately, bypassing suspicion — for
// deliberate departures (a draining worker).
func (m *membership) forceDead(worker string) transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[worker]
	if !ok || mb.state == StateDead {
		return transNone
	}
	mb.state = StateDead
	mb.misses = m.deadMisses
	mb.backoff = 4 * m.interval
	mb.nextProbe = time.Now().Add(m.jittered(mb.backoff))
	return transDied
}

// suspect reports out-of-band evidence of trouble (a dispatch that
// exhausted its retries against an unhealthy worker): alive → suspect
// without waiting for the next heartbeat tick. Never kills.
func (m *membership) suspect(worker string) transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[worker]
	if !ok || mb.state != StateAlive {
		return transNone
	}
	mb.state = StateSuspect
	if mb.misses < m.suspectMisses {
		mb.misses = m.suspectMisses
	}
	mb.backoff = m.interval
	mb.nextProbe = time.Now().Add(m.jittered(mb.backoff))
	inc(m.suspects)
	return transSuspected
}

// probeResult feeds one heartbeat answer into the detector.
func (m *membership) probeResult(worker string, ok bool) transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, present := m.members[worker]
	if !present {
		return transNone
	}
	if ok {
		switch mb.state {
		case StateSuspect:
			mb.state = StateAlive
			mb.misses = 0
			mb.backoff = 0
			return transRecovered
		case StateDead:
			// The detector was wrong: the worker outlived its death
			// sentence. Count it and re-admit fresh.
			mb.state = StateAlive
			mb.misses = 0
			mb.backoff = 0
			inc(m.falseDeaths)
			inc(m.joins)
			return transRevived
		default:
			mb.misses = 0
			return transNone
		}
	}
	switch mb.state {
	case StateAlive:
		mb.misses++
		if mb.misses >= m.suspectMisses {
			mb.state = StateSuspect
			mb.backoff = m.interval
			mb.nextProbe = time.Now().Add(m.jittered(mb.backoff))
			inc(m.suspects)
			return transSuspected
		}
		return transNone
	case StateSuspect:
		mb.misses++
		if mb.misses >= m.deadMisses {
			mb.state = StateDead
			mb.backoff = 4 * m.interval
			mb.nextProbe = time.Now().Add(m.jittered(mb.backoff))
			return transDied
		}
		// Exponential probe backoff while suspicion deepens: each miss
		// doubles the wait (capped), so a flapping worker is not hammered.
		mb.backoff *= 2
		if max := 8 * m.interval; mb.backoff > max {
			mb.backoff = max
		}
		mb.nextProbe = time.Now().Add(m.jittered(mb.backoff))
		return transNone
	default: // dead stays dead on a failed probe; keep the slow cadence
		mb.nextProbe = time.Now().Add(m.jittered(mb.backoff))
		return transNone
	}
}

// jittered spreads d by ±25% so suspect/dead probes across workers
// decorrelate instead of arriving as synchronized bursts.
func (m *membership) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	f := 0.75 + 0.5*m.rng.Float64()
	return time.Duration(float64(d) * f)
}

// due returns the workers whose probe is owed at now: every alive member
// (probed each tick) plus the suspect and dead members whose backoff
// elapsed.
func (m *membership) due(now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for w, mb := range m.members {
		if mb.state == StateAlive || !mb.nextProbe.After(now) {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// ringMembers returns the workers that hold ring arcs — alive and suspect,
// sorted. Suspects keep their arcs: only death moves cells.
func (m *membership) ringMembers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for w, mb := range m.members {
		if mb.state != StateDead {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// state returns one worker's current state (StateDead for unknowns —
// an unknown worker gets nothing dispatched).
func (m *membership) state(worker string) MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mb, ok := m.members[worker]; ok {
		return mb.state
	}
	return StateDead
}

// byState returns the members in a given state, sorted.
func (m *membership) byState(s MemberState) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for w, mb := range m.members {
		if mb.state == s {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}
