package system

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"cameo/internal/memsys"
	"cameo/internal/workload"
)

// shardedTestConfig is the conformance-scale CAMEO cell the determinism
// tests run: at ScaleDiv 8192 the congruence-group count is 7936 — not a
// power of two and not a multiple of anything convenient, so the residue
// classes and the Route closure's bounded-subtraction split both get
// exercised on an awkward geometry.
func shardedTestConfig(shards int) Config {
	return Config{
		Org:          CAMEO,
		ScaleDiv:     8192,
		Cores:        2,
		InstrPerCore: 20_000,
		Seed:         1,
		Shards:       shards,
	}
}

func milcSpec(tb testing.TB) workload.Spec {
	tb.Helper()
	spec, ok := workload.SpecByName("milc")
	if !ok {
		tb.Fatal("milc spec missing")
	}
	return spec
}

// encodeRun renders everything a sweep front end ever emits for a cell —
// the full Result (CSV and telemetry fields derive from it) and the
// metrics snapshot in its canonical byte form.
func encodeRun(tb testing.TB, res Result) []byte {
	tb.Helper()
	var buf bytes.Buffer
	j, err := json.Marshal(res)
	if err != nil {
		tb.Fatalf("marshal result: %v", err)
	}
	buf.Write(j)
	buf.WriteByte('\n')
	if err := res.Metrics.WriteJSON(&buf); err != nil {
		tb.Fatalf("write metrics: %v", err)
	}
	// The latency histogram is excluded from the JSON form; pin its raw
	// buckets too so quantile inputs (not just the derived P50/95/99) match.
	for _, b := range res.Latency.Buckets() {
		buf.WriteByte(' ')
		j, _ := json.Marshal(b)
		buf.Write(j)
	}
	return buf.Bytes()
}

// TestShardedByteIdenticalAcrossWorkerCounts is the mode's core contract:
// every Shards >= 1 produces byte-identical output — including a worker
// count (7) that divides neither the 16 lanes nor the group count, and a
// count (64) above the lane count that must clamp harmlessly.
func TestShardedByteIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := milcSpec(t)
	for _, warmup := range []uint64{0, 5_000} {
		name := "cold"
		if warmup > 0 {
			name = "warm"
		}
		t.Run(name, func(t *testing.T) {
			var want []byte
			for _, k := range []int{1, 2, 4, 7, 64} {
				cfg := shardedTestConfig(k)
				cfg.WarmupInstr = warmup
				res, err := TryRun(context.Background(), spec, cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				got := encodeRun(t, res)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("shards=%d output differs from shards=1:\n%s\nvs\n%s",
						k, firstDiff(want, got), got[:min(len(got), 200)])
				}
			}
		})
	}
}

func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(0, i-60)
			return string(a[lo:min(len(a), i+60)]) + "  <-- vs -->  " + string(b[lo:min(len(b), i+60)])
		}
	}
	return "length mismatch"
}

// TestShardedRepeatable pins plain determinism of the sharded path: the
// same worker count twice gives bytes, not just statistics, in common.
func TestShardedRepeatable(t *testing.T) {
	spec := milcSpec(t)
	a, err := TryRun(context.Background(), spec, shardedTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TryRun(context.Background(), spec, shardedTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRun(t, a), encodeRun(t, b)) {
		t.Fatal("two shards=4 runs of the same cell differ")
	}
}

// TestShardsRequireCapability: organizations without ShardableState must
// reject the knob at validation time with an actionable message.
func TestShardsRequireCapability(t *testing.T) {
	cfg := shardedTestConfig(2)
	cfg.Org = Baseline
	err := cfg.WithDefaults().Validate()
	if err == nil || !strings.Contains(err.Error(), "shardable") {
		t.Fatalf("baseline with -shards validated: %v", err)
	}
	if err := shardedTestConfig(-1).WithDefaults().Validate(); err == nil {
		t.Fatal("negative shard count validated")
	}
}

// newShardedMachine wires a full machine in sharded mode for direct access
// to the org hot path; Cleanup joins the workers.
func newShardedMachine(tb testing.TB, shards int) *machine {
	tb.Helper()
	spec := milcSpec(tb)
	cfg := shardedTestConfig(shards).WithDefaults()
	m, err := newMachine([]workload.Spec{spec, spec}, cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if m.shard == nil {
		tb.Fatal("machine did not take the sharded path")
	}
	tb.Cleanup(func() {
		if err := m.shard.drain(); err != nil {
			tb.Errorf("drain: %v", err)
		}
	})
	return m
}

// TestShardedWorkerClamp: worker goroutines can never outnumber lanes.
func TestShardedWorkerClamp(t *testing.T) {
	m := newShardedMachine(t, 64)
	if got, lanes := m.shard.workers, len(m.shard.lanes); got > lanes {
		t.Fatalf("%d workers for %d lanes", got, lanes)
	}
	if m.shard.workers != len(m.shard.lanes) {
		t.Fatalf("64 requested workers clamped to %d, want the lane count %d",
			m.shard.workers, len(m.shard.lanes))
	}
}

// TestShardedAccessSteadyStateAllocs pins the batched hand-off machinery to
// an allocation-free steady state: batches recycle through the per-worker
// free lists, so a measured window of thousands of accesses may allocate at
// most stray lane-internal slop (CAMEO's own declared bound is zero).
func TestShardedAccessSteadyStateAllocs(t *testing.T) {
	m := newShardedMachine(t, 4)
	visible := m.org.VisibleLines()
	var at, i uint64
	step := func(n int) {
		for j := 0; j < n; j++ {
			at += 3
			i++
			m.org.Access(at, memsys.Request{
				Core:  int(i % 2),
				PLine: (i * 2654435761) % visible,
				Write: i%8 == 7,
			})
		}
	}
	step(60_000) // fault pages in, warm the LLTs and batch free lists
	const window = 4096
	allocs := testing.AllocsPerRun(10, func() { step(window) })
	if allocs > 4 {
		t.Fatalf("sharded Access allocates %.1f per %d-access window, want ~0", allocs, window)
	}
}

// BenchmarkShardedAccess measures the sharded front-end hot path (route +
// batch enqueue + lane service on 4 workers) — the benchgate subset gates
// regressions on it.
func BenchmarkShardedAccess(b *testing.B) {
	m := newShardedMachine(b, 4)
	visible := m.org.VisibleLines()
	var at, i uint64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		at += 3
		i++
		m.org.Access(at, memsys.Request{
			Core:  int(i % 2),
			PLine: (i * 2654435761) % visible,
			Write: i%8 == 7,
		})
	}
}
