package fleet

import (
	"sort"
	"sync"
	"time"

	"cameo/internal/runner"
)

// leaseTable tracks time-bounded cell dispatch grants: which worker each
// in-flight cell was handed to and until when that grant is exclusive. The
// table is what the manifest's fleet.leases section snapshots, so a crashed
// coordinator's successor can read exactly what was outstanding: an expired
// lease marks its cell safely re-dispatchable (the holder is gone or stuck
// — and per-key result dedupe makes a double execution harmless anyway),
// while an unexpired one is worth waiting out before recomputing.
//
// A nil *leaseTable is a valid no-op table — leasing off (LeaseTTL 0)
// costs existing single-coordinator paths nothing.
type leaseTable struct {
	ttl time.Duration

	mu     sync.Mutex
	leases map[string]runner.CellLease
}

// newLeaseTable builds a table with the given grant TTL; ttl <= 0 returns
// nil (leasing disabled).
func newLeaseTable(ttl time.Duration) *leaseTable {
	if ttl <= 0 {
		return nil
	}
	return &leaseTable{ttl: ttl, leases: map[string]runner.CellLease{}}
}

// grant records a dispatch: hash is leased to worker until now+ttl. A
// re-grant (retry, failover, expiry re-dispatch) simply replaces the old
// lease — the newest holder owns the cell.
func (lt *leaseTable) grant(hash, worker string, now time.Time) {
	if lt == nil {
		return
	}
	lt.mu.Lock()
	lt.leases[hash] = runner.CellLease{
		Hash:          hash,
		Worker:        worker,
		ExpiresUnixMS: now.Add(lt.ttl).UnixMilli(),
	}
	lt.mu.Unlock()
}

// release drops a lease (the cell resolved or permanently failed).
func (lt *leaseTable) release(hash string) {
	if lt == nil {
		return
	}
	lt.mu.Lock()
	delete(lt.leases, hash)
	lt.mu.Unlock()
}

// expired removes and returns the grants that lapsed at now, sorted by
// hash. The caller re-dispatches their cells; any that were secretly still
// computing resolve harmlessly through the dedupe in resolve().
func (lt *leaseTable) expired(now time.Time) []runner.CellLease {
	if lt == nil {
		return nil
	}
	cutoff := now.UnixMilli()
	lt.mu.Lock()
	var out []runner.CellLease
	for h, l := range lt.leases {
		if l.ExpiresUnixMS <= cutoff {
			out = append(out, l)
			delete(lt.leases, h)
		}
	}
	lt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// holder returns the worker currently holding hash ("" when unleased).
func (lt *leaseTable) holder(hash string) string {
	if lt == nil {
		return ""
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.leases[hash].Worker
}

// snapshot renders the outstanding leases sorted by hash — the form the
// manifest records.
func (lt *leaseTable) snapshot() []runner.CellLease {
	if lt == nil {
		return nil
	}
	lt.mu.Lock()
	out := make([]runner.CellLease, 0, len(lt.leases))
	for _, l := range lt.leases {
		out = append(out, l)
	}
	lt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// adopt seeds the table from a resumed manifest's leases. Already-expired
// grants are dropped immediately (their cells dispatch normally); live ones
// are kept so the resuming coordinator can defer those cells until expiry
// instead of racing the possibly-still-computing prior holders.
func (lt *leaseTable) adopt(leases []runner.CellLease, now time.Time) (live []runner.CellLease) {
	if lt == nil {
		return nil
	}
	cutoff := now.UnixMilli()
	lt.mu.Lock()
	for _, l := range leases {
		if l.ExpiresUnixMS <= cutoff || l.Hash == "" {
			continue
		}
		lt.leases[l.Hash] = l
		live = append(live, l)
	}
	lt.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].Hash < live[j].Hash })
	return live
}
