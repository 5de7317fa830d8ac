package fleet

import (
	"testing"
	"time"

	"cameo/internal/metrics"
)

// TestMembershipLifecycle walks one worker through the full detector
// state machine: alive → suspect (after suspectMisses), → dead (after
// deadMisses), → alive again via a successful probe — the false-death
// path — asserting the transition the coordinator must act on at each
// step.
func TestMembershipLifecycle(t *testing.T) {
	m := newMembership(2, 4, time.Second, 1, nil)
	m.admit("http://w:1")
	if st := m.state("http://w:1"); st != StateAlive {
		t.Fatalf("state after join = %v, want alive", st)
	}

	// One miss: still alive (below the suspicion threshold).
	if tr := m.probeResult("http://w:1", false); tr != transNone {
		t.Fatalf("miss 1 = %v, want transNone", tr)
	}
	if st := m.state("http://w:1"); st != StateAlive {
		t.Fatalf("state after 1 miss = %v, want alive", st)
	}

	// Second consecutive miss: suspect.
	if tr := m.probeResult("http://w:1", false); tr != transSuspected {
		t.Fatalf("miss 2 = %v, want transSuspected", tr)
	}
	if st := m.state("http://w:1"); st != StateSuspect {
		t.Fatalf("state = %v, want suspect", st)
	}
	// A suspect still holds ring arcs.
	if got := m.ringMembers(); len(got) != 1 {
		t.Fatalf("ringMembers with a suspect = %v, want the suspect kept", got)
	}

	// Recovery before the window elapses: back to alive, no re-shard.
	if tr := m.probeResult("http://w:1", true); tr != transRecovered {
		t.Fatalf("recovery = %v, want transRecovered", tr)
	}

	// Now drive it all the way to dead: misses 1..4.
	for i := 0; i < 3; i++ {
		m.probeResult("http://w:1", false)
	}
	if st := m.state("http://w:1"); st != StateSuspect {
		t.Fatalf("state after 3 misses = %v, want suspect", st)
	}
	if tr := m.probeResult("http://w:1", false); tr != transDied {
		t.Fatalf("miss 4 = %v, want transDied", tr)
	}
	if got := m.ringMembers(); len(got) != 0 {
		t.Fatalf("ringMembers with a dead worker = %v, want empty", got)
	}

	// The dead are still probed; an answer is a false death and re-admits.
	if tr := m.probeResult("http://w:1", true); tr != transRevived {
		t.Fatalf("post-death answer = %v, want transRevived", tr)
	}
	if st := m.state("http://w:1"); st != StateAlive {
		t.Fatalf("state after revival = %v, want alive", st)
	}
}

// TestMembershipRejoin: admitting a dead worker again leaves it dead — only
// a successful probe re-admits it, as a fresh member, which counts as a
// join and a false death.
func TestMembershipRejoin(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newMembership(1, 2, time.Second, 1, reg.Scope("fleet"))
	m.admit("http://w:1")
	m.probeResult("http://w:1", false) // suspect (threshold 1)
	m.probeResult("http://w:1", false) // dead (threshold 2)
	if st := m.state("http://w:1"); st != StateDead {
		t.Fatalf("state = %v, want dead", st)
	}
	m.admit("http://w:1")
	if st := m.state("http://w:1"); st != StateDead {
		t.Fatalf("state after admitting a dead worker = %v, want still dead", st)
	}
	if tr := m.probeResult("http://w:1", true); tr != transRevived {
		t.Fatalf("probe answer from a dead worker = %v, want transRevived", tr)
	}
	snap := reg.Snapshot()
	if got := counterOrZero(snap, "fleet/joins"); got != 2 {
		t.Errorf("joins = %d, want 2 (the admission and the revival)", got)
	}
	if got := counterOrZero(snap, "fleet/false_deaths"); got != 1 {
		t.Errorf("false_deaths = %d, want 1", got)
	}
}

// TestMembershipSuspectRecoverIsNotARejoin: the partition-drill
// invariant — a suspect that answers again is neither a death nor a
// re-join, so a blip shorter than the suspicion window moves no cell.
func TestMembershipSuspectRecoverIsNotARejoin(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newMembership(2, 6, time.Second, 1, reg.Scope("fleet"))
	m.admit("http://w:1")
	m.probeResult("http://w:1", false)
	if tr := m.probeResult("http://w:1", false); tr != transSuspected {
		t.Fatalf("second miss = %v, want transSuspected", tr)
	}
	if tr := m.probeResult("http://w:1", true); tr != transRecovered {
		t.Fatalf("answer from a suspect = %v, want transRecovered", tr)
	}
	snap := reg.Snapshot()
	if got := counterOrZero(snap, "fleet/joins"); got != 1 {
		t.Errorf("suspect→recover moved joins to %d, want 1 (the admission only)", got)
	}
	if got := counterOrZero(snap, "fleet/false_deaths"); got != 0 {
		t.Errorf("false_deaths = %d, want 0", got)
	}
}

// TestMembershipDue: alive members are probed every tick; suspects only
// once their backoff elapses; dead members on their slow cadence.
func TestMembershipDue(t *testing.T) {
	m := newMembership(1, 3, time.Second, 1, nil)
	m.admit("http://a:1")
	m.admit("http://b:1")
	now := time.Now()
	if got := m.due(now); len(got) != 2 {
		t.Fatalf("due with two alive = %v, want both", got)
	}
	m.probeResult("http://a:1", false) // a: suspect, backoff ~1s from now
	if got := m.due(now); len(got) != 1 || got[0] != "http://b:1" {
		t.Fatalf("due right after suspicion = %v, want only b", got)
	}
	if got := m.due(now.Add(3 * time.Second)); len(got) != 2 {
		t.Fatalf("due after backoff = %v, want both", got)
	}
}

// TestJitterSeedReplayable pins the chaos-seed wiring of the probe jitter:
// the same seed reproduces the exact jitter stream (drills replay), while
// distinct seeds decorrelate into distinct probe timings.
func TestJitterSeedReplayable(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		m := newMembership(2, 4, time.Second, seed, nil)
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = m.jittered(time.Second)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical jitter streams")
	}
	// Seed 0 must alias the historical default stream, not panic or zero out.
	z := draw(0)
	o := draw(1)
	for i := range z {
		if z[i] != o[i] {
			t.Fatalf("seed 0 did not alias seed 1 at draw %d", i)
		}
	}
}
