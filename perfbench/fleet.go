package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cameo/internal/fleet"
	"cameo/internal/metrics"
	"cameo/internal/system"
)

// The fleet workload sends a sweep to a cameod coordinator fronting two
// cameod workers on loopback. Each worker runs with -max-inflight 1, so at
// most two simulations run at once. Only worker URLs, cache directories,
// -jobs and -max-inflight are set: no peers, joins, heartbeats, gossip or
// shards. A round is a fresh fleet; its precondition sweep (excluded from
// every metric) leaves half of the measured grid in the workers' caches,
// so every measured cell takes either the cache-hit or the simulate path.

type fleetProcs struct {
	workers []*daemon
	coord   *daemon
}

func (f *fleetProcs) all() []*daemon { return append(append([]*daemon(nil), f.workers...), f.coord) }

func (f *fleetProcs) stop() error { return stopAll(f.all()...) }

// startFleet launches both workers, then the coordinator over their URLs,
// and returns once every process answers 200 on /readyz.
func startFleet(ctx context.Context, cfg config, dir string) (*fleetProcs, error) {
	f := &fleetProcs{}
	type started struct {
		d   *daemon
		err error
	}
	ch := make(chan started, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			d, err := launch(cfg.cameod, "-cachedir", filepath.Join(dir, fmt.Sprintf("w%d", i)),
				"-jobs", "1", "-max-inflight", "1")
			ch <- started{d, err}
		}(i)
	}
	var firstErr error
	var urls []string
	for i := 0; i < 2; i++ {
		s := <-ch
		if s.err != nil {
			firstErr = s.err
			continue
		}
		f.workers = append(f.workers, s.d)
		urls = append(urls, s.d.url)
	}
	if firstErr != nil {
		f.stop()
		return nil, firstErr
	}
	co, err := launch(cfg.cameod, "-coordinator", "-workers", urls[0]+","+urls[1])
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = co
	for _, d := range f.all() {
		if err := ready(ctx, d.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func sumCPU(ds []*daemon) (time.Duration, error) {
	var total time.Duration
	for _, d := range ds {
		c, err := taskCPU(d.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// fleetWork returns the simulated memory requests of the measured cells
// the precondition did not cache.
func fleetWork(grid fleetGrid, ref map[string]refCell) float64 {
	pre := map[sweepCell]bool{}
	for _, c := range grid.pre {
		pre[c] = true
	}
	var n float64
	for _, c := range grid.measured {
		if !pre[c] {
			n += ref[c.tag()].simRequests
		}
	}
	return n
}

func fleetPrepare(ctx context.Context, cfg config, g *gate) (fleetGrid, map[string]refCell, error) {
	grid := newFleetGrid(cfg.seed)
	ref, err := referenceCells(ctx, grid.measured)
	if err != nil {
		return grid, nil, err
	}
	rec, err := loadRecord(cfg.records, "fleet", cfg.seed)
	if err != nil {
		return grid, nil, err
	}
	g.checkRecord(rec, fastPointName, refDigests(ref))
	return grid, ref, nil
}

// fleetRound runs one round on a fresh fleet.
func fleetRound(ctx context.Context, cfg config, i int, grid fleetGrid, ref map[string]refCell, g *gate, rs *rounds) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("fleet-%d", i))
	defer os.RemoveAll(dir)
	t0 := time.Now()
	f, err := startFleet(ctx, cfg, dir)
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	status, resp, err := postSweep(ctx, f.coord.url, grid.preRequest())
	if err != nil {
		f.stop()
		return err
	}
	g.checkReply(status, resp, grid.pre, ref)

	cpu0, err := sumCPU(f.all())
	if err != nil {
		f.stop()
		return err
	}
	t1 := time.Now()
	status, resp, err = postSweep(ctx, f.coord.url, grid.measuredRequest())
	wall := time.Since(t1)
	if err != nil {
		f.stop()
		return err
	}
	cpu1, err := sumCPU(f.all())
	if err != nil {
		f.stop()
		return err
	}
	var rss uint64
	for _, d := range f.all() {
		r, err := peakRSS(d.pid())
		if err != nil {
			f.stop()
			return err
		}
		rss += r
	}
	if err := f.stop(); err != nil {
		return err
	}
	g.checkReply(status, resp, grid.measured, ref)
	rs.setup = append(rs.setup, setup.Seconds())
	rs.latMS = append(rs.latMS, ms(wall))
	rs.add(wall, cpu1-cpu0, rss, fleetWork(grid, ref), len(grid.measured))
	return nil
}

func measureFleet(ctx context.Context, cfg config) (*outcome, error) {
	g := &gate{}
	grid, ref, err := fleetPrepare(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	var rs rounds
	start := time.Now()
	for i := 0; len(rs.wall) < 3 || time.Since(start).Seconds() < cfg.seconds; i++ {
		rs.calibrate()
		if err := fleetRound(ctx, cfg, i, grid, ref, g, &rs); err != nil {
			return nil, err
		}
	}
	return &outcome{gate: g, metrics: rs.endToEnd(), rounds: &rs}, nil
}

// tracedFleetRound builds the in-process fleet, runs the precondition
// sweep untraced-for-metrics, and profiles the measured sweep.
func tracedFleetRound(ctx context.Context, cfg config, i int, tr *tracer, ph *phases, grid fleetGrid,
	ref map[string]refCell, g *gate) (svc, coord metrics.Snapshot, err error) {
	p := &inProcess{}
	defer func() {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}()
	dir := filepath.Join(cfg.work, fmt.Sprintf("fleet-traced-%d", i))
	var urls []string
	for w := 0; w < 2; w++ {
		u, err := p.worker(tr, filepath.Join(dir, fmt.Sprintf("w%d", w)), fmt.Sprintf("w%d", w), true)
		if err != nil {
			return nil, nil, err
		}
		urls = append(urls, u)
	}
	// cameod -coordinator's defaults, as the untraced fleet runs them.
	co, err := fleet.NewCoordinator(fleet.CoordinatorOptions{Workers: urls, MaxCells: 1024, LeaseTTL: 30 * time.Second})
	if err != nil {
		return nil, nil, err
	}
	p.stops = append(p.stops, co.Close)
	curl, err := p.serve(tr.middleware("fleet.request", "coordinator", co.Handler()))
	if err != nil {
		return nil, nil, err
	}

	m := tr.mark()
	status, resp, err := postSweep(ctx, curl, grid.preRequest())
	if err != nil {
		return nil, nil, err
	}
	g.checkReply(status, resp, grid.pre, ref)
	g.checkTraced(tr, m, ref)
	tr.discardSince(m)
	svc0, co0 := p.metrics(), co.Metrics()

	m = tr.mark()
	err = ph.run(func() error {
		status, resp, err = postSweep(ctx, curl, grid.measuredRequest())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	g.checkReply(status, resp, grid.measured, ref)
	g.checkTraced(tr, m, ref)
	return delta(p.metrics(), svc0), delta(co.Metrics(), co0), nil
}

func traceFleet(ctx context.Context, cfg config) (*outcome, error) {
	g := &gate{}
	grid, ref, err := fleetPrepare(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	var rs rounds
	for i := 0; i < 3; i++ {
		if err := fleetRound(ctx, cfg, i, grid, ref, g, &rs); err != nil {
			return nil, err
		}
	}

	tr := newTracer()
	var ph phases
	var svc, coord []metrics.Snapshot
	var cells map[string]system.Result
	start := time.Now()
	for i := 0; tracedPhaseOpen(start, cfg, i); i++ {
		m := tr.mark()
		s, c, err := tracedFleetRound(ctx, cfg, i, tr, &ph, grid, ref, g)
		if err != nil {
			return nil, err
		}
		svc, coord = append(svc, s), append(coord, c)
		cells = tr.results(m)
	}
	if err := tr.write(cfg.traceDir, "fleet", cfg.seed); err != nil {
		return nil, err
	}
	merged := metrics.Merge(svc...)
	return &outcome{gate: g, metrics: layerMetrics(layerInput{
		phases:        &ph,
		rounds:        len(ph.walls),
		tracer:        tr,
		cells:         cells,
		cellsExecuted: metricTotal(merged, "server/cells_executed") / float64(len(ph.walls)),
		service:       merged,
		coordinator:   metrics.Merge(coord...),
		sweepNeeded:   float64(len(grid.measured) - len(grid.pre)),
		overhead:      median(ph.walls) / median(rs.wall),
	}, cfg.log)}, nil
}

// delta subtracts before's counters from after's, leaving gauges as read.
func delta(after, before metrics.Snapshot) metrics.Snapshot {
	out := make(metrics.Snapshot, 0, len(after))
	for _, s := range after {
		if b, ok := before.Get(s.Name); ok && s.Kind == metrics.KindCounter {
			s.Value -= b.Value
		}
		out = append(out, s)
	}
	return out
}
