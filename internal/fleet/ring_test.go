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
// (two processes) with the same roster agree on every cell's owner,
// whatever order the roster lists the workers in.
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
	for _, k := range ringKeys(2000) {
		if oa, ob := a.Owner(k), b.Owner(k); oa != ob {
			t.Fatalf("owner of %q diverges: add-order %q, reverse-order %q", k, oa, ob)
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

// TestRingRemapBoundOnJoin checks the consistent-hashing contract that a
// roster edit between two coordinator runs leans on: adding a worker to an
// N-ring moves roughly 1/(N+1) of the keys, never wildly more, and every
// moved key moves TO the new worker — no collateral shuffling between old
// workers.
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

// TestRingEdgeCases covers the empty ring, idempotent add, and a
// one-worker ring.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0) // default vnodes
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	r.Add("http://w:1")
	r.Add("http://w:1") // idempotent
	if got := r.Workers(); len(got) != 1 {
		t.Fatalf("workers after duplicate add = %v, want 1", got)
	}
	if len(r.points) != DefaultVirtualNodes {
		t.Fatalf("duplicate add doubled vnodes: %d points", len(r.points))
	}
	if got := r.Owner("k"); got != "http://w:1" {
		t.Fatalf("single-worker ring owner = %q", got)
	}
}
