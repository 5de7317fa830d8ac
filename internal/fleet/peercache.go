package fleet

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"cameo/internal/faultinject"
	"cameo/internal/metrics"
	"cameo/internal/runner"
	"cameo/internal/system"
)

// PeerTier is a runner.Cache that layers the fleet's shared cache on top
// of a worker's local DiskCache: a miss locally falls through to HTTP GETs
// of the checksummed cameo-cache-entry-v1 envelope from peer workers, each
// response re-verified by the same schema+checksum check the disk path
// uses. A verified peer entry is adopted into the local disk (so the next
// hit is local) and a corrupt or truncated one is rejected and counted —
// the tier then simply recomputes, never trusts.
//
// Stores stay local-only: peers pull on demand, so the fleet needs no
// write fan-out, and a cell computed by any node is reachable by all of
// them. That is what makes a second fleet run of the same sweep recompute
// nothing, wherever the ring happens to place each cell.
type PeerTier struct {
	local  *runner.DiskCache
	client *http.Client

	// peers holds an immutable []string snapshot of peer base URLs
	// ("http://host:port"), replaced wholesale by SetPeers (copy-on-write).
	// Readers load one snapshot and iterate it unlocked, so a live update
	// never blocks — or tears — an in-flight cache fetch.
	peers atomic.Value

	reg        *metrics.Registry
	localHits  *metrics.Counter
	peerHits   *metrics.Counter
	misses     *metrics.Counter
	rejects    *metrics.Counter
	peerErrors *metrics.Counter
	stores     *metrics.Counter
}

// NewPeerTier composes the shared tier over a worker's local cache.
// timeout bounds each peer probe (<=0: 2s) — a dead peer must cost
// milliseconds, not hang a sweep cell.
func NewPeerTier(local *runner.DiskCache, peers []string, timeout time.Duration) *PeerTier {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	t := &PeerTier{
		local:  local,
		client: &http.Client{Timeout: timeout},
		reg:    metrics.NewRegistry(),
	}
	t.peers.Store(append([]string(nil), peers...))
	sc := t.reg.Scope("fleet/peercache")
	t.localHits = sc.Counter("local_hits")
	t.peerHits = sc.Counter("peer_hits")
	t.misses = sc.Counter("misses")
	t.rejects = sc.Counter("rejects")
	t.peerErrors = sc.Counter("peer_errors")
	t.stores = sc.Counter("stores")
	return t
}

// SetChaos wires a deterministic transport fault plan under the tier's
// peer fetches (site fleet/cachefetch). Call before serving traffic.
func (t *PeerTier) SetChaos(plan *faultinject.Plan) {
	t.client.Transport = newChaosTransport(t.client.Transport, plan)
}

// SetPeers replaces the peer list, copy-on-write: the input is copied into
// a fresh snapshot and published atomically, so concurrent Loads keep the
// list they started with and the next Load sees the new one. Safe to call
// at any time, including while the tier serves traffic — so peers can be
// wired after their servers have started.
func (t *PeerTier) SetPeers(peers []string) {
	t.peers.Store(append([]string(nil), peers...))
}

// Peers returns the current peer snapshot. Callers must not mutate it.
func (t *PeerTier) Peers() []string {
	return t.peers.Load().([]string)
}

// Load implements runner.Cache: local disk first, then each peer in order.
func (t *PeerTier) Load(hash string) (system.Result, bool) {
	if res, ok := t.local.Load(hash); ok {
		t.localHits.Inc()
		return res, true
	}
	for _, p := range t.Peers() {
		data, err := t.fetch(p, hash)
		if err != nil {
			if err != errNotFound {
				t.peerErrors.Inc()
			}
			continue
		}
		res, err := runner.DecodeEntry(data)
		if err != nil {
			// Corrupt or truncated in flight (or a lying peer): reject and
			// keep looking; worst case the cell recomputes.
			t.rejects.Inc()
			continue
		}
		// Adopt the verified envelope bytes so the next load is local.
		// Best-effort: an adoption failure only costs a future re-fetch.
		_ = t.local.StoreRaw(hash, data) //nolint:errcheck
		t.peerHits.Inc()
		return res, true
	}
	t.misses.Inc()
	return system.Result{}, false
}

// errNotFound distinguishes a clean 404 (peer simply lacks the cell) from
// a peer that is down or misbehaving.
var errNotFound = fmt.Errorf("fleet: peer has no entry")

// fetch GETs one envelope from one peer.
func (t *PeerTier) fetch(peer, hash string) ([]byte, error) {
	resp, err := t.client.Get(peer + "/cache/" + hash)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: peer %s answered %d for %s", peer, resp.StatusCode, hash)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}

// Store implements runner.Cache: results persist locally; peers pull.
func (t *PeerTier) Store(hash string, res system.Result) {
	t.local.Store(hash, res)
	t.stores.Inc()
}

// Metrics returns the tier's counters (local_hits, peer_hits, misses,
// rejects, peer_errors, stores) under the fleet/peercache scope.
func (t *PeerTier) Metrics() metrics.Snapshot { return t.reg.Snapshot() }
