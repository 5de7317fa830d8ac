package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cameo/internal/metrics"
	"cameo/internal/sweepapi"
)

// TestMembershipLifecycle walks one worker through the two-state detector:
// alive → suspect after suspectMisses consecutive misses, suspect however
// many misses follow, alive again on the first ready probe; and suspect at
// once on out-of-band evidence.
func TestMembershipLifecycle(t *testing.T) {
	const w = "http://w:1"
	m := newMembership(2, nil)
	m.admit(w)
	if st := m.state(w); st != StateAlive {
		t.Fatalf("state after admission = %v, want alive", st)
	}
	probe := func(what string, ready bool, want MemberState, wantChanged bool) {
		t.Helper()
		if st, changed := m.probeResult(w, ready); st != want || changed != wantChanged {
			t.Fatalf("%s: state %v (changed %v), want %v (changed %v)", what, st, changed, want, wantChanged)
		}
	}
	probe("first miss", false, StateAlive, false)
	probe("a ready answer between misses", true, StateAlive, false)
	probe("first miss again", false, StateAlive, false)
	probe("second consecutive miss", false, StateSuspect, true)
	for i := 0; i < 20; i++ {
		probe("a miss while suspect", false, StateSuspect, false)
	}
	probe("a ready answer while suspect", true, StateAlive, true)

	if !m.suspect(w) {
		t.Fatal("out-of-band evidence did not turn an alive worker suspect")
	}
	if m.suspect(w) {
		t.Fatal("out-of-band evidence turned a suspect suspect again")
	}
	probe("a ready answer after out-of-band suspicion", true, StateAlive, true)
	if st := m.state("http://never-admitted:1"); st != StateSuspect {
		t.Fatalf("unknown worker's state = %v, want suspect (nothing is dispatched to it)", st)
	}
}

// TestMembershipSuspectRecoverIsNotARejoin: a suspect that answers again
// is the same member it was, with its misses reset — one more miss does
// not turn it suspect again — and the blip counts one suspicion.
func TestMembershipSuspectRecoverIsNotARejoin(t *testing.T) {
	const w = "http://w:1"
	reg := metrics.NewRegistry()
	m := newMembership(2, reg.Scope("fleet"))
	m.admit(w)
	m.probeResult(w, false)
	if st, changed := m.probeResult(w, false); st != StateSuspect || !changed {
		t.Fatalf("second miss: state %v (changed %v), want suspect (changed)", st, changed)
	}
	if st, changed := m.probeResult(w, true); st != StateAlive || !changed {
		t.Fatalf("answer from a suspect: state %v (changed %v), want alive (changed)", st, changed)
	}
	m.admit(w) // re-admitting a known worker changes nothing
	if st, _ := m.probeResult(w, false); st != StateAlive {
		t.Fatalf("one miss after recovery: state %v, want alive (the misses reset)", st)
	}
	if got := counterOrZero(reg.Snapshot(), "fleet/suspects"); got != 1 {
		t.Errorf("suspects = %d, want 1", got)
	}
}

// TestMembershipDue: the heartbeat probes every roster worker's /readyz
// every tick: a suspect as often as an alive worker, so a suspect that is
// ready again is found within one tick however long it was away, and
// neither waits for a worker whose probe hangs until the probe timeout.
func TestMembershipDue(t *testing.T) {
	readyz := func(probes *atomic.Int64, ready bool) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/readyz" {
				http.NotFound(w, r)
				return
			}
			probes.Add(1)
			if !ready {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			json.NewEncoder(w).Encode(sweepapi.ReadyState{Ready: ready, MaxInflight: 1}) //nolint:errcheck
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	var aliveProbes, suspectProbes atomic.Int64
	a, b := readyz(&aliveProbes, true), readyz(&suspectProbes, false)
	hung := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hung.Close)
	co, _ := newTestCoordinator(t, CoordinatorOptions{
		Workers:           []string{a.URL, b.URL, hung.URL},
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectMisses:     1,
	})
	waitFor(t, 5*time.Second, "the unready worker to turn suspect", func() bool {
		return co.mem.state(b.URL) == StateSuspect
	})
	a0, b0 := aliveProbes.Load(), suspectProbes.Load()
	time.Sleep(300 * time.Millisecond)
	da, db := aliveProbes.Load()-a0, suspectProbes.Load()-b0
	if da < 5 || 2*db < da {
		t.Fatalf("in 300 ms the alive worker was probed %d times and the suspect %d, want both about 30", da, db)
	}
}
