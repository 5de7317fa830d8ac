package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"cameo/internal/sweepapi"
	"cameo/internal/system"
)

// The correctness gate. Every operation a workload performs is checked
// against an in-process reference computed outside the measured phase by
// calling runner.Job.TryRun directly (no suite, no server, no cache), and —
// when the records directory holds a recorded output for the seed — the
// reference itself is checked against the record. An operation that fails,
// is shed, or answers a different value counts as failed.

const defaultSeed = 1

// heldOutSeed has recorded outputs but is never used while tuning the
// benchmark or a change; claims must also hold on it.
const heldOutSeed = 7919

// gate tallies checked operations.
type gate struct {
	attempted int
	failed    int
	problems  []string
}

// check counts one operation, failed when ok is false.
func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.fail(format, args...)
	}
}

// fail counts one failed operation that was already counted as attempted.
func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.problems) < 8 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

func (g *gate) report(w io.Writer) {
	fmt.Fprintf(w, "  gate: %d attempted, %d failed\n", g.attempted, g.failed)
	for _, p := range g.problems {
		fmt.Fprintf(w, "  gate: %s\n", p)
	}
}

// cellDigest hashes a cell's simulated statistics: the run-level figures of
// system.Result plus every counter of its telemetry snapshot. The
// organization-specific Stats pointers are left out because the snapshot
// carries the same counters.
func cellDigest(res system.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d|%d|%s|%d|%d|%d|%d\n",
		res.Org, res.Benchmark, res.Class, res.Cores, res.Instructions, res.Cycles,
		res.Demands, res.Writebacks, floatBits(res.AvgMemLatency), res.WarmupEndCycle,
		res.LatencyP50, res.LatencyP95, res.LatencyP99)
	enc := json.NewEncoder(h)
	for _, v := range []any{res.Stacked, res.OffChip, res.VM, res.DroppedWritebacks, res.Metrics} {
		if err := enc.Encode(v); err != nil {
			panic(err) // plain structs of numbers always encode
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// replyDigest hashes one cell of a /sweep reply exactly as served.
func replyDigest(c sweepapi.Cell) string {
	data, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// replyCell renders a result the way the sweep service answers it.
func replyCell(tag string, res system.Result) sweepapi.Cell {
	return sweepapi.Cell{
		Benchmark:     tag,
		Org:           res.Org,
		Cycles:        res.Cycles,
		Instructions:  res.Instructions,
		Demands:       res.Demands,
		AvgMemLatency: res.AvgMemLatency,
		LatencyP95:    res.LatencyP95,
	}
}

// record is a recorded output: one digest per cell, keyed by the cell key
// (paper) or the reply tag (serve, fleet).
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Point    string            `json:"point"`
	Cells    map[string]string `json:"cells"`
	// Fig13 holds the overall gmean speedups of Figure 13 (paper only).
	Fig13 map[string]float64 `json:"fig13_gmean,omitempty"`
}

func recordPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// loadRecord returns the recorded output for the workload and seed, or nil
// when none was recorded.
func loadRecord(dir, workload string, seed uint64) (*record, error) {
	data, err := os.ReadFile(recordPath(dir, workload, seed))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("record %s: %w", recordPath(dir, workload, seed), err)
	}
	return &r, nil
}

func saveRecord(dir string, r *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(recordPath(dir, r.Workload, r.Seed), append(data, '\n'), 0o644)
}

// checkRecord compares reference digests against a record: every recorded
// cell must be present with the same digest, and the reference must hold
// no cell the record lacks.
func (g *gate) checkRecord(rec *record, point string, ref map[string]string) {
	if rec == nil {
		return
	}
	if rec.Point != point {
		g.check(false, "record for seed %d is at operating point %q, this run is at %q", rec.Seed, rec.Point, point)
		return
	}
	keys := make([]string, 0, len(rec.Cells))
	for k := range rec.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok := ref[k]
		g.check(ok && got == rec.Cells[k], "cell %s: simulated %q, recorded %q", k, got, rec.Cells[k])
	}
	for k := range ref {
		if _, ok := rec.Cells[k]; !ok {
			g.check(false, "cell %s is not in the record", k)
		}
	}
}
