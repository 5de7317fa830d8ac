package runner

import (
	"encoding/json"
	"io"
	"sort"

	"cameo/internal/metrics"
)

// TelemetrySchema versions the telemetry JSON layout.
const TelemetrySchema = "cameo-telemetry-v1"

// CellTelemetry is one cell's contribution to the run telemetry. WallNS and
// FromCache are volatile (they vary with machine load and cache state) and
// are populated only when timing is requested, so the default telemetry file
// is byte-identical across runs and worker counts.
type CellTelemetry struct {
	Key       string           `json:"key"`
	Name      string           `json:"name"`
	FromCache bool             `json:"from_cache,omitempty"`
	WallNS    int64            `json:"wall_ns,omitempty"`
	Metrics   metrics.Snapshot `json:"metrics"`
}

// Telemetry is the full observability dump of a runner invocation: every
// memoized cell's metrics snapshot in canonical key order, plus the merged
// aggregate. Runner holds the pool's own counters and is present only when
// timing was requested (its values depend on cache state and scheduling).
type Telemetry struct {
	Schema    string           `json:"schema"`
	Cells     []CellTelemetry  `json:"cells"`
	Aggregate metrics.Snapshot `json:"aggregate"`
	Runner    metrics.Snapshot `json:"runner,omitempty"`
}

// WriteJSON serializes the telemetry deterministically (indented, fixed
// field order, cells key-sorted, snapshots name-sorted).
func (t Telemetry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// cellInfo is the per-cell execution record kept alongside the memo map.
type cellInfo struct {
	name      string
	wallNS    int64
	fromCache bool
}

// Telemetry assembles the run telemetry from the memoized cells. With
// includeTiming false the volatile fields (wall time, cache provenance,
// runner pool counters) are omitted and the result depends only on the job
// set — parallel and serial runs produce byte-identical output.
func (r *Runner) Telemetry(includeTiming bool) Telemetry {
	r.mu.Lock()
	keys := make([]string, 0, len(r.done))
	for k := range r.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cells := make([]CellTelemetry, 0, len(keys))
	snaps := make([]metrics.Snapshot, 0, len(keys))
	for _, k := range keys {
		res := r.done[k]
		ct := CellTelemetry{Key: k, Metrics: res.Metrics}
		if info, ok := r.cells[k]; ok {
			ct.Name = info.name
			if includeTiming {
				ct.WallNS = info.wallNS
				ct.FromCache = info.fromCache
			}
		}
		cells = append(cells, ct)
		snaps = append(snaps, res.Metrics)
	}
	r.mu.Unlock()

	t := Telemetry{
		Schema:    TelemetrySchema,
		Cells:     cells,
		Aggregate: metrics.Merge(snaps...),
	}
	if includeTiming {
		t.Runner = r.reg.Snapshot()
	}
	return t
}

// Metrics returns a snapshot of the runner's own pool counters (cells
// executed, cache and memo hits, panics).
func (r *Runner) Metrics() metrics.Snapshot { return r.reg.Snapshot() }
