package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cameo/internal/metrics"
	"cameo/internal/runner"
	"cameo/internal/system"
)

const testHash = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"

func testResult() system.Result {
	return system.Result{
		Org:           "cameo",
		Benchmark:     "mix_0",
		Cores:         16,
		Instructions:  4_800_000,
		Cycles:        9_000_000,
		Demands:       120_000,
		AvgMemLatency: 87.5,
	}
}

func openDisk(t *testing.T) *runner.DiskCache {
	t.Helper()
	dc, err := runner.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenDiskCache: %v", err)
	}
	t.Cleanup(func() { dc.Close() })
	return dc
}

func counterValue(t *testing.T, snap metrics.Snapshot, name string) uint64 {
	t.Helper()
	s, ok := snap.Get(name)
	if !ok {
		t.Fatalf("snapshot has no sample %q", name)
	}
	return s.Value
}

// peerStub serves a fixed body for every /cache/ GET.
func peerStub(t *testing.T, status int, body []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.WriteHeader(status)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestPeerTierLocalFirst: a locally-cached cell never touches the network.
func TestPeerTierLocalFirst(t *testing.T) {
	local := openDisk(t)
	local.Store(testHash, testResult())
	// The "peer" panics the test if contacted.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("peer contacted for a locally-cached entry: %s", r.URL)
	}))
	t.Cleanup(peer.Close)

	tier := NewPeerTier(local, []string{peer.URL}, time.Second)
	res, ok := tier.Load(testHash)
	if !ok || res.Cycles != testResult().Cycles {
		t.Fatalf("Load = (%+v, %v), want local hit", res, ok)
	}
	snap := tier.Metrics()
	if got := counterValue(t, snap, "fleet/peercache/local_hits"); got != 1 {
		t.Errorf("local_hits = %d, want 1", got)
	}
	if got := counterValue(t, snap, "fleet/peercache/peer_hits"); got != 0 {
		t.Errorf("peer_hits = %d, want 0", got)
	}
}

// TestPeerTierPeerHitAdopts: a verified peer entry is served AND adopted
// into the local disk, so the second load is local.
func TestPeerTierPeerHitAdopts(t *testing.T) {
	remote := openDisk(t)
	remote.Store(testHash, testResult())
	envelope, ok := remote.LoadRaw(testHash)
	if !ok {
		t.Fatalf("remote cache lost its own entry")
	}
	peer := peerStub(t, http.StatusOK, envelope)

	local := openDisk(t)
	tier := NewPeerTier(local, []string{peer.URL}, time.Second)

	res, ok := tier.Load(testHash)
	if !ok || res.AvgMemLatency != testResult().AvgMemLatency {
		t.Fatalf("Load via peer = (%+v, %v), want hit", res, ok)
	}
	if got := counterValue(t, tier.Metrics(), "fleet/peercache/peer_hits"); got != 1 {
		t.Errorf("peer_hits = %d, want 1", got)
	}
	// Adopted: now a local hit without the peer.
	tier.SetPeers(nil)
	if _, ok := tier.Load(testHash); !ok {
		t.Fatalf("entry not adopted into local cache after peer hit")
	}
	if got := counterValue(t, tier.Metrics(), "fleet/peercache/local_hits"); got != 1 {
		t.Errorf("local_hits after adoption = %d, want 1", got)
	}
}

// TestPeerTierRejectsCorruptAndTruncated: a peer answering garbage, a
// flipped payload byte, or a truncated envelope is rejected by the
// checksum verification — counted, never served, and never adopted — and
// the tier falls through to a miss (the caller recomputes).
func TestPeerTierRejectsCorruptAndTruncated(t *testing.T) {
	remote := openDisk(t)
	remote.Store(testHash, testResult())
	envelope, _ := remote.LoadRaw(testHash)

	corrupt := make([]byte, len(envelope))
	copy(corrupt, envelope)
	// Flip a byte near the end (inside the payload, past the envelope
	// header) so the JSON still parses but the checksum cannot match.
	corrupt[len(corrupt)-10] ^= 0x40

	cases := []struct {
		name string
		body []byte
	}{
		{"garbage", []byte("not json at all")},
		{"flipped-byte", corrupt},
		{"truncated", envelope[:len(envelope)/2]},
		{"empty", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := peerStub(t, http.StatusOK, tc.body)
			local := openDisk(t)
			tier := NewPeerTier(local, []string{peer.URL}, time.Second)

			if res, ok := tier.Load(testHash); ok {
				t.Fatalf("corrupt peer entry served as a hit: %+v", res)
			}
			snap := tier.Metrics()
			if got := counterValue(t, snap, "fleet/peercache/rejects"); got != 1 {
				t.Errorf("rejects = %d, want 1", got)
			}
			if got := counterValue(t, snap, "fleet/peercache/misses"); got != 1 {
				t.Errorf("misses = %d, want 1 (must fall through to recompute)", got)
			}
			// The poison must not have been adopted locally.
			if _, ok := local.Load(testHash); ok {
				t.Fatalf("corrupt entry was adopted into the local cache")
			}
		})
	}
}

// TestPeerTierFallsThroughDeadPeerToLivePeer: one unreachable peer and one
// good peer — the tier counts the error and still serves the hit.
func TestPeerTierFallsThroughDeadPeerToLivePeer(t *testing.T) {
	remote := openDisk(t)
	remote.Store(testHash, testResult())
	envelope, _ := remote.LoadRaw(testHash)
	good := peerStub(t, http.StatusOK, envelope)

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // now refuses connections

	local := openDisk(t)
	tier := NewPeerTier(local, []string{dead.URL, good.URL}, 500*time.Millisecond)
	if _, ok := tier.Load(testHash); !ok {
		t.Fatalf("hit on the live peer expected despite the dead one")
	}
	snap := tier.Metrics()
	if got := counterValue(t, snap, "fleet/peercache/peer_errors"); got != 1 {
		t.Errorf("peer_errors = %d, want 1", got)
	}
	if got := counterValue(t, snap, "fleet/peercache/peer_hits"); got != 1 {
		t.Errorf("peer_hits = %d, want 1", got)
	}
}

// TestPeerTier404IsCleanMiss: a peer that simply lacks the entry is not an
// error; the tier records a miss and the caller recomputes.
func TestPeerTier404IsCleanMiss(t *testing.T) {
	peer := peerStub(t, http.StatusNotFound, []byte("not found"))
	tier := NewPeerTier(openDisk(t), []string{peer.URL}, time.Second)
	if _, ok := tier.Load(testHash); ok {
		t.Fatalf("404 peer produced a hit")
	}
	snap := tier.Metrics()
	if got := counterValue(t, snap, "fleet/peercache/misses"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := counterValue(t, snap, "fleet/peercache/peer_errors"); got != 0 {
		t.Errorf("peer_errors = %d, want 0 (404 is clean)", got)
	}
}

// TestPeerTierStoreIsLocal: Store persists locally and counts; peers are
// not contacted (they pull on demand).
func TestPeerTierStoreIsLocal(t *testing.T) {
	local := openDisk(t)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("Store contacted a peer: %s %s", r.Method, r.URL)
	}))
	t.Cleanup(peer.Close)
	tier := NewPeerTier(local, []string{peer.URL}, time.Second)
	tier.Store(testHash, testResult())
	if _, ok := local.Load(testHash); !ok {
		t.Fatalf("Store did not persist locally")
	}
	if got := counterValue(t, tier.Metrics(), "fleet/peercache/stores"); got != 1 {
		t.Errorf("stores = %d, want 1", got)
	}
}

// TestPeerTierConcurrentSetPeers races live peer-list updates against
// lookups. The copy-on-write snapshot means readers see some complete peer
// list — never a torn one — and the race detector adjudicates. Run with
// -race.
func TestPeerTierConcurrentSetPeers(t *testing.T) {
	remote := openDisk(t)
	remote.Store(testHash, testResult())
	envelope, ok := remote.LoadRaw(testHash)
	if !ok {
		t.Fatalf("remote cache lost its own entry")
	}
	peer := peerStub(t, http.StatusOK, envelope)

	tier := NewPeerTier(openDisk(t), []string{peer.URL}, time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				// Alternate between shapes so readers observe real churn.
				if k%2 == 0 {
					tier.SetPeers([]string{peer.URL, fmt.Sprintf("http://ghost-%d-%d", i, k)})
				} else {
					tier.SetPeers([]string{peer.URL})
				}
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if got := tier.Peers(); len(got) < 1 || len(got) > 2 {
					t.Errorf("torn peer snapshot: %v", got)
					return
				}
				tier.Load(testHash)
			}
		}()
	}
	wg.Wait()

	// After the churn settles the tier still resolves through the live peer.
	tier.SetPeers([]string{peer.URL})
	if _, ok := tier.Load(testHash); !ok {
		t.Fatal("peer load failed after concurrent SetPeers churn")
	}
}
