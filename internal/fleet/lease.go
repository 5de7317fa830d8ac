package fleet

import (
	"sort"
	"sync"
	"time"
)

// leaseTable tracks time-bounded cell dispatch grants: which worker each
// in-flight cell was handed to and until when that grant is exclusive. An
// expired lease marks its cell safely re-dispatchable: the holder is hung,
// or its admission slots are held by other tenants, and per-key result
// dedupe makes a double execution harmless anyway. Each sweep holds its
// own table, so two sweeps that share a cell never replace or release each
// other's lease on it. The table lives only in memory: a coordinator's
// death cancels its dispatches at the workers, so its leases would name
// work no worker is doing.
//
// A nil *leaseTable is a valid no-op table — leasing off (LeaseTTL 0)
// costs the dispatch path nothing.
type leaseTable struct {
	ttl time.Duration

	mu     sync.Mutex
	leases map[string]cellLease
}

// cellLease is one dispatch grant: cell hash, holder and absolute expiry.
type cellLease struct {
	hash    string
	worker  string
	expires time.Time
}

// newLeaseTable builds a table with the given grant TTL; ttl <= 0 returns
// nil (leasing disabled).
func newLeaseTable(ttl time.Duration) *leaseTable {
	if ttl <= 0 {
		return nil
	}
	return &leaseTable{ttl: ttl, leases: map[string]cellLease{}}
}

// grant records a dispatch: hash is leased to worker until now+ttl. A
// re-grant (retry, failover, expiry re-dispatch) simply replaces the old
// lease — the newest holder owns the cell.
func (lt *leaseTable) grant(hash, worker string, now time.Time) {
	if lt == nil {
		return
	}
	lt.mu.Lock()
	lt.leases[hash] = cellLease{hash: hash, worker: worker, expires: now.Add(lt.ttl)}
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
func (lt *leaseTable) expired(now time.Time) []cellLease {
	if lt == nil {
		return nil
	}
	lt.mu.Lock()
	var out []cellLease
	for h, l := range lt.leases {
		if !l.expires.After(now) {
			out = append(out, l)
			delete(lt.leases, h)
		}
	}
	lt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].hash < out[j].hash })
	return out
}
