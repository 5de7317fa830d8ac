// Package sweepapi is the wire schema of the sweep service: the request,
// response, and readiness types cameod serves and the coordinator speaks,
// plus the grid builder that turns a request into concrete runner jobs.
//
// It exists as its own package so both internal/server (the single-node
// worker) and internal/fleet (the coordinator) can share one schema and one
// grid construction — the coordinator must derive exactly the cell keys,
// tags, and ordering a worker would, or the fleet's merged report could
// never be byte-identical to a single-node run.
package sweepapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"cameo/internal/runner"
	"cameo/internal/system"
	"cameo/internal/workload"
)

// Request is the POST /sweep body. Org/Benchmarks use the CLI spellings;
// Sweep/Values mirror cameo-sweep's dimensions.
type Request struct {
	Org        string   `json:"org"`
	Benchmarks []string `json:"benchmarks"`
	// Sweep is the swept dimension: scale, cores, ratio, seed, or an
	// organization-specific dimension from system.SweepDims. Empty with no
	// Values runs one cell per benchmark at the defaults.
	Sweep  string   `json:"sweep,omitempty"`
	Values []uint64 `json:"values,omitempty"`
	Instr  uint64   `json:"instr,omitempty"`
	Cores  int      `json:"cores,omitempty"`
	Scale  uint64   `json:"scale,omitempty"`
	Seed   uint64   `json:"seed,omitempty"`
	// TimeoutMS bounds the whole request; on expiry the sweep is cancelled
	// mid-flight (not abandoned) and the request answers 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// maxRequestBytes bounds a POST /sweep body.
const maxRequestBytes = 1 << 20

// DecodeRequest reads a POST /sweep body: one JSON object of at most 1 MiB
// that names only Request's fields, so a misspelled or retired field (say
// "sede" for "seed") is an error instead of a silently defaulted value.
// Worker and coordinator both decode with it.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// Cell is one grid cell of the response, in request order.
type Cell struct {
	Benchmark     string  `json:"benchmark"`
	Org           string  `json:"org"`
	Cycles        uint64  `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	Demands       uint64  `json:"demands"`
	AvgMemLatency float64 `json:"avg_mem_latency"`
	LatencyP95    uint64  `json:"latency_p95"`
}

// Response is the POST /sweep reply. Failures lists the cells that failed,
// each attempted once and quarantined by the runner; Cells still contains
// every cell that completed.
type Response struct {
	Org      string               `json:"org"`
	Cells    []Cell               `json:"cells"`
	Failures []runner.CellFailure `json:"failures,omitempty"`
}

// ReadyState is the GET /readyz JSON body: enough admission detail for a
// coordinator to make placement decisions, not just a 200/503 bit.
type ReadyState struct {
	Ready       bool `json:"ready"`
	Draining    bool `json:"draining"`
	Inflight    int  `json:"inflight"`
	MaxInflight int  `json:"max_inflight"`
	Queued      int  `json:"queued"`
	MaxQueue    int  `json:"max_queue"`
	// KeepsResults is true when the worker's reply memo is on (it has a
	// result cache): a cell it answered once it answers again without
	// simulating, so a coordinator sends such cells back to it.
	KeepsResults bool `json:"keeps_results"`
}

// FreeSlots returns how many sweep requests the worker could admit right
// now without queueing (0 when draining or saturated).
func (rs ReadyState) FreeSlots() int {
	if !rs.Ready || rs.Draining {
		return 0
	}
	if free := rs.MaxInflight - rs.Inflight; free > 0 {
		return free
	}
	return 0
}

// CellSpec identifies one request-order grid cell by its swept coordinates
// — the information needed to re-express that single cell as its own
// Request (the coordinator's dispatch unit).
type CellSpec struct {
	// Benchmark is the workload name (without the @sweep=value tag).
	Benchmark string
	// Value is the swept value for this cell; meaningless when the grid has
	// no swept dimension (HasValue false).
	Value    uint64
	HasValue bool
}

// Grid is a request expanded into concrete cells, all three slices in
// request order (benchmarks outer, values inner) and index-aligned.
type Grid struct {
	// Jobs are the runner cells; Jobs[i].Key() is the canonical cell key
	// the ring shards on and Jobs[i].Hash() the cache identity.
	Jobs []runner.Job
	// Tags are the human-facing cell labels ("milc@seed=7") the response
	// grid reports, in request order.
	Tags []string
	// Cells are the swept coordinates of each job, for per-cell dispatch.
	Cells []CellSpec
}

// BuildGrid turns a request into the job grid. maxCells caps the grid size
// (<=0 means 1024, matching the server default). The expansion is the
// single source of truth for cell identity: server and coordinator both
// call it, so a cell's key, tag, and position agree fleet-wide.
func BuildGrid(req Request, maxCells int) (*Grid, error) {
	if maxCells <= 0 {
		maxCells = 1024
	}
	kind, ok := system.ParseOrg(req.Org)
	if !ok {
		return nil, fmt.Errorf("unknown organization %q (have: %s)",
			req.Org, strings.Join(system.OrgNames(), ", "))
	}
	if len(req.Benchmarks) == 0 {
		return nil, errors.New("no benchmarks given")
	}
	values := req.Values
	sweep := req.Sweep
	hasValues := true
	if len(values) == 0 {
		if sweep != "" {
			return nil, fmt.Errorf("sweep %q with no values", sweep)
		}
		values = []uint64{0} // one cell per benchmark at the defaults
		sweep = "none"
		hasValues = false
	} else if sweep == "" {
		return nil, errors.New("values given with no sweep dimension")
	}
	if n := len(req.Benchmarks) * len(values); n > maxCells {
		return nil, fmt.Errorf("%d cells exceeds the per-request cap of %d", n, maxCells)
	}

	g := &Grid{}
	for _, bn := range req.Benchmarks {
		spec, ok := workload.SpecByName(strings.TrimSpace(bn))
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bn)
		}
		for _, v := range values {
			cfg := system.Config{
				Org:          kind,
				ScaleDiv:     req.Scale,
				Cores:        req.Cores,
				InstrPerCore: req.Instr,
				Seed:         req.Seed,
			}
			if cfg.ScaleDiv == 0 {
				cfg.ScaleDiv = 1024
			}
			if cfg.InstrPerCore == 0 {
				cfg.InstrPerCore = 300_000
			}
			if cfg.Cores == 0 {
				cfg.Cores = 16
			}
			tag := spec.Name
			if sweep != "none" {
				if err := system.ApplySweep(&cfg, sweep, v); err != nil {
					return nil, err
				}
				tag = fmt.Sprintf("%s@%s=%d", spec.Name, sweep, v)
			}
			g.Jobs = append(g.Jobs, runner.NewJob(spec, cfg))
			g.Tags = append(g.Tags, tag)
			g.Cells = append(g.Cells, CellSpec{Benchmark: spec.Name, Value: v, HasValue: hasValues})
		}
	}
	return g, nil
}

// CellRequest re-expresses one grid cell of req as a standalone single-cell
// request — the coordinator's dispatch unit. The worker expanding it with
// BuildGrid produces exactly the same job key, hash, and tag the
// coordinator derived, so caches and report rows line up.
// TimeoutMS is cleared: the coordinator owns the sweep deadline and
// propagates it per dispatch.
func CellRequest(req Request, spec CellSpec) Request {
	out := req
	out.Benchmarks = []string{spec.Benchmark}
	out.TimeoutMS = 0
	if spec.HasValue {
		out.Values = []uint64{spec.Value}
	} else {
		out.Sweep = ""
		out.Values = nil
	}
	return out
}
