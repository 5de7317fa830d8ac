package fleet

import (
	"fmt"
	"sort"
	"sync"

	"cameo/internal/metrics"
)

// MemberState is a worker's position in the failure-detection lifecycle.
//
//	         misses, a failed dispatch or a 503 drain answer
//	alive ─────────────────────────────────────────────────▶ suspect
//	  ▲                                                          │
//	  └───────────────── a probe finds it ready ─────────────────┘
//
// Neither edge moves a cell: the ring is fixed over the -workers roster,
// and liveness decides only who serves a cell, never who owns it. A
// suspect's dispatch pauses and its queued cells are open to stealing by
// the active workers; a ready probe resumes it.
type MemberState int

const (
	// StateAlive: the worker's /readyz answers ready; it receives
	// dispatches.
	StateAlive MemberState = iota
	// StateSuspect: probes miss, a dispatch failed against it, or it is
	// draining. Dispatch to it pauses until a probe finds it ready again.
	StateSuspect
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	}
	return fmt.Sprintf("MemberState(%d)", int(s))
}

// member is one worker's detector state.
type member struct {
	state  MemberState
	misses int // consecutive failed probes
}

// membership is the coordinator's failure detector over the roster: the
// two-state lifecycle per worker and heartbeat-miss accounting. All
// methods are safe for concurrent use; none calls out while holding the
// lock, so callers apply a change's side effects themselves.
type membership struct {
	suspectMisses int

	mu      sync.Mutex
	members map[string]*member

	suspects *metrics.Counter
}

// newMembership builds the detector. suspectMisses is the consecutive
// heartbeat misses that turn alive into suspect (<=0: 2). sc receives the
// suspects counter (nil: a private scope).
func newMembership(suspectMisses int, sc *metrics.Scope) *membership {
	if suspectMisses <= 0 {
		suspectMisses = 2
	}
	if sc == nil {
		sc = metrics.NewRegistry().Scope("fleet")
	}
	return &membership{suspectMisses: suspectMisses, members: map[string]*member{}, suspects: sc.Counter("suspects")}
}

// admit registers a roster worker (the -workers list at startup) as alive.
// Admitting a known worker is a no-op.
func (m *membership) admit(worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[worker]; !ok {
		m.members[worker] = &member{state: StateAlive}
	}
}

// suspect reports out-of-band evidence of trouble (a dispatch that
// exhausted its retries against an unhealthy worker, or a 503 drain
// answer): alive → suspect without waiting for the next heartbeat. Reports
// whether the worker turned suspect.
func (m *membership) suspect(worker string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[worker]
	if !ok || mb.state != StateAlive {
		return false
	}
	mb.state = StateSuspect
	m.suspects.Inc()
	return true
}

// probeResult feeds one heartbeat answer into the detector: a ready answer
// makes the worker alive, and suspectMisses consecutive misses make it
// suspect. Returns the worker's state after the answer and whether the
// answer changed it.
func (m *membership) probeResult(worker string, ready bool) (MemberState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.members[worker]
	if !ok {
		return StateSuspect, false
	}
	was := mb.state
	switch {
	case ready:
		mb.state, mb.misses = StateAlive, 0
	case mb.state == StateAlive:
		if mb.misses++; mb.misses >= m.suspectMisses {
			mb.state = StateSuspect
			m.suspects.Inc()
		}
	}
	return mb.state, mb.state != was
}

// state returns one worker's current state (StateSuspect for unknowns —
// an unknown worker gets nothing dispatched).
func (m *membership) state(worker string) MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mb, ok := m.members[worker]; ok {
		return mb.state
	}
	return StateSuspect
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
