// Package fleet scales the sweep service from one cameod to many: a
// coordinator shards sweep cells across a fixed roster of workers by
// consistent hashing of the canonical cell key, work-steals stragglers off
// slow or suspect workers, and lets every worker consult its peers' result
// caches before recomputing a cell — so the fleet computes each cell at
// most once, and the merged report is byte-identical to a single-node run
// at any worker count.
//
// The sharding idiom follows Chang et al. (arXiv 1602.00722): a hash ring
// with virtual nodes, chosen because a roster edit between two coordinator
// runs remaps only ~1/N of the keys, so the workers' caches stay warm
// across it. Within a coordinator's life the ring never changes: like
// CAMEO's congruence groups, it fixes where each cell belongs, and
// liveness decides only which worker serves it.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-worker virtual-node count. 128 points per
// worker keeps the load imbalance within a few percent at fleet sizes in
// the tens while the ring stays tiny (a few KB).
const DefaultVirtualNodes = 128

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// worker.
type ringPoint struct {
	pos    uint64
	worker string
}

// Ring is a consistent-hash ring over worker names with virtual nodes.
// It is deterministic across processes and platforms: positions come from
// SHA-256, membership is kept sorted, and lookups are pure — two
// coordinators with the same membership agree on every cell's owner.
// Ring is not safe for concurrent mutation; the coordinator builds it once
// and only reads it after that.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by pos
	workers map[string]bool
}

// NewRing builds an empty ring. vnodes <= 0 uses DefaultVirtualNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, workers: map[string]bool{}}
}

// hashPos maps a string to its ring position.
func hashPos(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add registers a worker (idempotent). Only keys whose arc the new
// worker's virtual nodes land on move to it; every other key keeps its
// owner.
func (r *Ring) Add(worker string) {
	if r.workers[worker] {
		return
	}
	r.workers[worker] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			pos:    hashPos(worker + "#" + strconv.Itoa(i)),
			worker: worker,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// Position collisions resolve by name so membership order can
		// never tip ownership.
		return r.points[i].worker < r.points[j].worker
	})
}

// Owner returns the worker owning a key: the first virtual node at or
// clockwise after the key's position. Empty string when the ring is empty.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	pos := hashPos(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap past twelve o'clock
	}
	return r.points[i].worker
}

// Workers returns the registered workers, sorted.
func (r *Ring) Workers() []string {
	out := make([]string, 0, len(r.workers))
	for w := range r.workers {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
