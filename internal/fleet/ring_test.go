package fleet

import (
	"fmt"
	"testing"
)

// ringKeys fabricates a deterministic key population shaped like real cell
// keys (benchmark|param=value).
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("mix_%d|scale=%d|cores=16|seed=42", i%7, i)
	}
	return keys
}

func workerNames(n int) []string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = fmt.Sprintf("http://worker-%d:9000", i)
	}
	return ws
}

// TestRingDeterministicAcrossConstructionOrder proves two coordinators
// (two processes) with the same membership agree on every cell's owner,
// however they happened to learn about the workers.
func TestRingDeterministicAcrossConstructionOrder(t *testing.T) {
	workers := workerNames(5)
	a := NewRing(64)
	for _, w := range workers {
		a.Add(w)
	}
	b := NewRing(64)
	for i := len(workers) - 1; i >= 0; i-- {
		b.Add(workers[i])
	}
	// c reaches the same membership through churn.
	c := NewRing(64)
	c.Add("http://transient:1")
	for _, w := range workers {
		c.Add(w)
	}
	c.Remove("http://transient:1")

	for _, k := range ringKeys(2000) {
		oa, ob, oc := a.Owner(k), b.Owner(k), c.Owner(k)
		if oa != ob || oa != oc {
			t.Fatalf("owner of %q diverges: add-order %q, reverse-order %q, churned %q", k, oa, ob, oc)
		}
	}
}

// TestRingGoldenOwners pins concrete assignments so a cross-process (or
// cross-platform, or cross-version) build that silently changes the hash
// layout fails loudly: a lost coordinator and the coordinator its sweep is
// re-posted to must agree.
func TestRingGoldenOwners(t *testing.T) {
	r := NewRing(64)
	for _, w := range workerNames(3) {
		r.Add(w)
	}
	golden := map[string]string{
		"mix_0|scale=0|cores=16|seed=42": "http://worker-2:9000",
		"mix_1|scale=1|cores=16|seed=42": "http://worker-0:9000",
		"mix_2|scale=2|cores=16|seed=42": "http://worker-2:9000",
		"mix_3|scale=3|cores=16|seed=42": "http://worker-2:9000",
		"mix_4|scale=4|cores=16|seed=42": "http://worker-2:9000",
	}
	for k, want := range golden {
		if got := r.Owner(k); got != want {
			t.Errorf("Owner(%q) = %q, want %q (ring layout changed — this breaks re-posting a sweep across versions)", k, got, want)
		}
	}
}

// TestRingRemapBoundOnJoin checks the consistent-hashing contract: adding
// a worker to an N-ring moves roughly 1/(N+1) of the keys, never wildly
// more, and every moved key moves TO the new worker — no collateral
// shuffling between old workers.
func TestRingRemapBoundOnJoin(t *testing.T) {
	keys := ringKeys(4000)
	for _, n := range []int{2, 3, 5, 8} {
		workers := workerNames(n + 1)
		r := NewRing(DefaultVirtualNodes)
		for _, w := range workers[:n] {
			r.Add(w)
		}
		before := map[string]string{}
		for _, k := range keys {
			before[k] = r.Owner(k)
		}
		joined := workers[n]
		r.Add(joined)
		moved := 0
		for _, k := range keys {
			after := r.Owner(k)
			if after == before[k] {
				continue
			}
			moved++
			if after != joined {
				t.Fatalf("n=%d: key %q moved %q → %q, but only the joining worker %q may gain keys", n, k, before[k], after, joined)
			}
		}
		ideal := len(keys) / (n + 1)
		// 2x slack over the ideal share: vnode placement is hash-random, so
		// the share fluctuates, but a bound violation here means the ring
		// is reshuffling rather than splitting arcs.
		if moved > 2*ideal {
			t.Errorf("n=%d: join moved %d of %d keys, want ≲ %d (~1/%d + slack)", n, moved, len(keys), 2*ideal, n+1)
		}
		if moved == 0 {
			t.Errorf("n=%d: join moved no keys at all — the new worker would idle", n)
		}
	}
}

// TestRingRemapBoundOnLeave is the mirror: removing a worker moves only
// the keys it owned, and each lands on a surviving worker.
func TestRingRemapBoundOnLeave(t *testing.T) {
	keys := ringKeys(4000)
	for _, n := range []int{2, 3, 5, 8} {
		workers := workerNames(n)
		r := NewRing(DefaultVirtualNodes)
		for _, w := range workers {
			r.Add(w)
		}
		before := map[string]string{}
		for _, k := range keys {
			before[k] = r.Owner(k)
		}
		lost := workers[0]
		ownedByLost := 0
		for _, k := range keys {
			if before[k] == lost {
				ownedByLost++
			}
		}
		r.Remove(lost)
		moved := 0
		for _, k := range keys {
			after := r.Owner(k)
			if after == lost {
				t.Fatalf("n=%d: key %q still owned by removed worker", n, k)
			}
			if after != before[k] {
				moved++
				if before[k] != lost {
					t.Fatalf("n=%d: key %q moved %q → %q though its owner survived", n, k, before[k], after)
				}
			}
		}
		if moved != ownedByLost {
			t.Errorf("n=%d: %d keys moved but the lost worker owned %d — exactly its keys must move", n, moved, ownedByLost)
		}
	}
}

// TestRingDistribution checks the virtual nodes spread load evenly enough
// at several fleet sizes: every worker's share within 2x of ideal (128
// vnodes keeps the real spread far tighter; 2x catches a broken hash).
func TestRingDistribution(t *testing.T) {
	keys := ringKeys(8000)
	for _, n := range []int{2, 3, 5, 8} {
		r := NewRing(DefaultVirtualNodes)
		for _, w := range workerNames(n) {
			r.Add(w)
		}
		counts := map[string]int{}
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d workers own keys", n, len(counts))
		}
		ideal := len(keys) / n
		for w, c := range counts {
			if c < ideal/2 || c > 2*ideal {
				t.Errorf("n=%d: worker %s owns %d keys, want within [%d, %d] of ideal %d", n, w, c, ideal/2, 2*ideal, ideal)
			}
		}
	}
}

// TestRingEdgeCases covers the empty ring, idempotent add, and removal of
// an unknown worker.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0) // default vnodes
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	r.Add("http://w:1")
	r.Add("http://w:1") // idempotent
	if r.Len() != 1 {
		t.Fatalf("Len after duplicate add = %d, want 1", r.Len())
	}
	if len(r.points) != DefaultVirtualNodes {
		t.Fatalf("duplicate add doubled vnodes: %d points", len(r.points))
	}
	r.Remove("http://never-added:1")
	if r.Len() != 1 {
		t.Fatalf("removing unknown worker changed membership")
	}
	if got := r.Owner("k"); got != "http://w:1" {
		t.Fatalf("single-worker ring owner = %q", got)
	}
	r.Remove("http://w:1")
	if r.Len() != 0 || len(r.points) != 0 {
		t.Fatalf("ring not empty after removing last worker")
	}
}

// TestRingAddRemoveRestoresAssignment is the membership-churn inverse
// property the self-healing fleet leans on: a worker that joins and then
// leaves (or dies and is re-sharded away) leaves the ring exactly where
// it started — every key's owner is restored bit-for-bit, so a bounded
// membership excursion (join→leave, or death→rejoin→death) can never
// permanently skew placement. Checked at N ∈ {2,3,5,8} incumbents, and
// in both orders (add-then-remove and remove-then-re-add), with the
// moved-key count on each edge within the 2× ideal-share bound.
func TestRingAddRemoveRestoresAssignment(t *testing.T) {
	keys := ringKeys(4000)
	for _, n := range []int{2, 3, 5, 8} {
		workers := workerNames(n + 1)
		r := NewRing(DefaultVirtualNodes)
		for _, w := range workers[:n] {
			r.Add(w)
		}
		before := map[string]string{}
		for _, k := range keys {
			before[k] = r.Owner(k)
		}

		// Excursion 1: transient joiner. Add, bound the churn, remove,
		// demand exact restoration.
		transient := workers[n]
		r.Add(transient)
		moved := 0
		for _, k := range keys {
			if r.Owner(k) != before[k] {
				moved++
			}
		}
		ideal := len(keys) / (n + 1)
		if moved > 2*ideal {
			t.Errorf("n=%d: transient join moved %d keys, want ≲ %d", n, moved, 2*ideal)
		}
		r.Remove(transient)
		for _, k := range keys {
			if got := r.Owner(k); got != before[k] {
				t.Fatalf("n=%d: after add+remove of %q, key %q owned by %q, want %q (prior assignment not restored)",
					n, transient, k, got, before[k])
			}
		}

		// Excursion 2: an incumbent dies and re-joins. Same demand.
		victim := workers[0]
		r.Remove(victim)
		movedOut := 0
		for _, k := range keys {
			if r.Owner(k) != before[k] {
				movedOut++
			}
		}
		if idealShare := len(keys) / n; movedOut > 2*idealShare {
			t.Errorf("n=%d: death of %q moved %d keys, want ≲ %d", n, victim, movedOut, 2*idealShare)
		}
		r.Add(victim)
		for _, k := range keys {
			if got := r.Owner(k); got != before[k] {
				t.Fatalf("n=%d: after remove+re-add of %q, key %q owned by %q, want %q (re-join must restore the dead worker's arcs exactly)",
					n, victim, k, got, before[k])
			}
		}
	}
}
