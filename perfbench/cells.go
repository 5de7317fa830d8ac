package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"cameo/internal/sweepapi"
	"cameo/internal/workload"
)

// The serve and fleet workloads send single-organization sweeps of CAMEO
// cells at the fast operating point (scale 4096, 4 cores, 40000
// instructions per core), each cell named by its benchmark and the value of
// the swept seed dimension.

// fastPoint is the request every serve and fleet sweep starts from.
var fastPoint = sweepapi.Request{Org: "cameo", Scale: 4096, Cores: 4, Instr: 40000, Sweep: "seed"}

const fastPointName = "org=cameo scale=4096 cores=4 instr=40000"

// sweepCell is one (benchmark, seed value) cell.
type sweepCell struct {
	bench string
	value uint64
}

func (c sweepCell) tag() string { return fmt.Sprintf("%s@seed=%d", c.bench, c.value) }

// sweepRequest asks for every benchmark at every value, benchmarks outer.
func sweepRequest(benches []string, values []uint64) sweepapi.Request {
	r := fastPoint
	r.Benchmarks = benches
	r.Values = values
	return r
}

func (c sweepCell) request() sweepapi.Request {
	return sweepRequest([]string{c.bench}, []uint64{c.value})
}

// refCell is the in-process reference for one cell: its runner key, the
// digest of the reply the service must give, the digest of its full
// simulated statistics, and the simulated memory requests (demands plus
// writebacks) executing the cell costs.
type refCell struct {
	key         string
	digest      string
	full        string
	simRequests float64
}

// referenceCells simulates each cell directly with runner.Job.TryRun — the
// job the service derives from the same request, run without server,
// runner pool or cache.
func referenceCells(ctx context.Context, cells []sweepCell) (map[string]refCell, error) {
	ref := make(map[string]refCell, len(cells))
	for _, c := range cells {
		if _, ok := ref[c.tag()]; ok {
			continue
		}
		grid, err := sweepapi.BuildGrid(c.request(), 1)
		if err != nil {
			return nil, err
		}
		res, err := grid.Jobs[0].TryRun(ctx)
		if err != nil {
			return nil, err
		}
		ref[grid.Tags[0]] = refCell{
			key:         grid.Jobs[0].Key(),
			digest:      replyDigest(replyCell(grid.Tags[0], res)),
			full:        cellDigest(res),
			simRequests: float64(res.Demands + res.Writebacks),
		}
	}
	return ref, nil
}

// checkTraced checks every cell a traced service run simulated since m
// against the untraced reference's full statistics, one gate operation
// per cell.
func (g *gate) checkTraced(t *tracer, m traceMark, ref map[string]refCell) {
	byKey := make(map[string]refCell, len(ref))
	for _, r := range ref {
		byKey[r.key] = r
	}
	results := t.results(m)
	for _, k := range sortedKeys(results) {
		want, ok := byKey[k]
		g.check(ok && cellDigest(results[k]) == want.full, "traced cell %s differs from the untraced reference", k)
	}
}

func refDigests(ref map[string]refCell) map[string]string {
	out := make(map[string]string, len(ref))
	for k, v := range ref {
		out[k] = v.digest
	}
	return out
}

// checkReply checks that a 200 reply answers exactly the wanted cells, in
// order, with the reference values; one gate operation per wanted cell.
func (g *gate) checkReply(status int, resp *sweepapi.Response, want []sweepCell, ref map[string]refCell) {
	if status != 200 || resp == nil {
		for _, c := range want {
			g.check(false, "cell %s: HTTP status %d", c.tag(), status)
		}
		return
	}
	for i, c := range want {
		if i >= len(resp.Cells) {
			g.check(false, "cell %s missing from the reply", c.tag())
			continue
		}
		got := resp.Cells[i]
		g.check(got.Benchmark == c.tag() && replyDigest(got) == ref[c.tag()].digest,
			"cell %s: reply %+v differs from the reference", c.tag(), got)
	}
	if len(resp.Cells) > len(want) || len(resp.Failures) > 0 {
		g.fail("reply carries %d cells and %d failures for %d wanted", len(resp.Cells), len(resp.Failures), len(want))
	}
}

// tableII lists every benchmark of the paper's Table II.
func tableII() []string {
	specs := workload.Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Serve traffic: each client owns a disjoint set of cells, so a repeat
// always names a cell that client has already been answered for and the
// hit share of a round does not depend on how the two clients interleave.
const (
	serveClients   = 2
	servePerClient = 900 // requests per client per round
	serveNewCells  = 225 // of which name a new cell: three in four repeat
)

// serveSequences generates each client's request sequence from the seed.
// Exactly serveNewCells requests, at seeded positions (the first always),
// name a new cell; its benchmark walks a seeded shuffle of Table II, so
// every benchmark appears about equally often, and its seed value is
// random. Every other request repeats a uniformly chosen earlier cell of
// the same client.
func serveSequences(seed uint64) [][]sweepCell {
	benches := tableII()
	used := map[sweepCell]bool{}
	seqs := make([][]sweepCell, serveClients)
	for c := range seqs {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
		fresh := make([]bool, servePerClient)
		fresh[0] = true
		for _, i := range rng.Perm(servePerClient - 1)[:serveNewCells-1] {
			fresh[i+1] = true
		}
		order := rng.Perm(len(benches))
		var seen []sweepCell
		for i := 0; i < servePerClient; i++ {
			if !fresh[i] {
				seqs[c] = append(seqs[c], seen[rng.IntN(len(seen))])
				continue
			}
			bench := benches[order[len(seen)%len(order)]]
			var cell sweepCell
			for {
				cell = sweepCell{bench: bench, value: 1 + rng.Uint64N(1<<31)}
				if !used[cell] {
					break
				}
			}
			used[cell] = true
			seen = append(seen, cell)
			seqs[c] = append(seqs[c], cell)
		}
	}
	return seqs
}

// Fleet grid: CAMEO × the paper subset × fleetValues seed values drawn
// from the workload seed. The precondition sweep covers the second half of
// the values, so half of the measured grid is already in the workers'
// caches when the measured sweep starts.
const fleetValues = 16

var fleetBenchmarks = []string{"mcf", "lbm", "milc", "gcc", "sphinx3"}

type fleetGrid struct {
	values []uint64
	// measured and pre are the request-order cells of the measured and
	// precondition sweeps.
	measured, pre []sweepCell
}

func (f fleetGrid) measuredRequest() sweepapi.Request {
	return sweepRequest(fleetBenchmarks, f.values)
}

func (f fleetGrid) preRequest() sweepapi.Request {
	return sweepRequest(fleetBenchmarks, f.values[fleetValues/2:])
}

func newFleetGrid(seed uint64) fleetGrid {
	rng := rand.New(rand.NewPCG(seed, 0xF1EE7))
	seen := map[uint64]bool{}
	var f fleetGrid
	for len(f.values) < fleetValues {
		v := 1 + rng.Uint64N(1<<31)
		if !seen[v] {
			seen[v] = true
			f.values = append(f.values, v)
		}
	}
	for _, b := range fleetBenchmarks {
		for i, v := range f.values {
			c := sweepCell{bench: b, value: v}
			f.measured = append(f.measured, c)
			if i >= fleetValues/2 {
				f.pre = append(f.pre, c)
			}
		}
	}
	return f
}

// distinctCells flattens sequences into their distinct cells, in first-use
// order.
func distinctCells(seqs ...[]sweepCell) []sweepCell {
	seen := map[sweepCell]bool{}
	var out []sweepCell
	for _, s := range seqs {
		for _, c := range s {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}
