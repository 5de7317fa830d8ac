package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cameo/internal/metrics"
	"cameo/internal/runner"
	"cameo/internal/server"
	"cameo/internal/sweepapi"
	"cameo/internal/system"
)

// The serve workload is a closed loop of two clients, each posting
// single-cell /sweep requests back to back to one cameod started with
// -addr and -cachedir only, so it runs the shipped defaults. A round is a
// fresh cameod with an empty result cache answering both clients' fixed
// sequences, so every round does the same work: a quarter of the requests
// simulate and store a new cell, the rest load an earlier one.

// reply is one answered request, checked after the round so the check
// does not sit in the closed loop.
type reply struct {
	cell   sweepCell
	status int
	resp   *sweepapi.Response
	err    error
	lat    time.Duration
}

// closedLoop runs each client's sequence against url, one request at a
// time per client, and returns every reply and the loop's wall time.
func closedLoop(ctx context.Context, url string, seqs [][]sweepCell) ([][]reply, time.Duration) {
	out := make([][]reply, len(seqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, seq := range seqs {
		wg.Add(1)
		go func(c int, seq []sweepCell) {
			defer wg.Done()
			rs := make([]reply, len(seq))
			for i, cell := range seq {
				t := time.Now()
				status, resp, err := postSweep(ctx, url, cell.request())
				rs[i] = reply{cell: cell, status: status, resp: resp, err: err, lat: time.Since(t)}
			}
			out[c] = rs
		}(c, seq)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// checkReplies counts one gate operation per request.
func (g *gate) checkReplies(replies [][]reply, ref map[string]refCell) {
	for _, rs := range replies {
		for _, r := range rs {
			if r.err != nil {
				g.check(false, "cell %s: %v", r.cell.tag(), r.err)
				continue
			}
			g.checkReply(r.status, r.resp, []sweepCell{r.cell}, ref)
		}
	}
}

// serveWork returns the simulated memory requests one round executes: one
// simulation per distinct cell.
func serveWork(seqs [][]sweepCell, ref map[string]refCell) float64 {
	var n float64
	for _, c := range distinctCells(seqs...) {
		n += ref[c.tag()].simRequests
	}
	return n
}

// servePrepare generates the traffic and its reference replies.
func servePrepare(ctx context.Context, cfg config, g *gate) ([][]sweepCell, map[string]refCell, error) {
	seqs := serveSequences(cfg.seed)
	ref, err := referenceCells(ctx, distinctCells(seqs...))
	if err != nil {
		return nil, nil, err
	}
	rec, err := loadRecord(cfg.records, "serve", cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	g.checkRecord(rec, fastPointName, refDigests(ref))
	return seqs, ref, nil
}

// serveRound runs one round against a fresh cameod.
func serveRound(ctx context.Context, cfg config, i int, seqs [][]sweepCell, ref map[string]refCell, g *gate, rs *rounds) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("serve-%d", i))
	defer os.RemoveAll(dir)
	t0 := time.Now()
	d, err := launch(cfg.cameod, "-cachedir", dir)
	if err != nil {
		return err
	}
	if err := ready(ctx, d.url); err != nil {
		stopAll(d)
		return err
	}
	setup := time.Since(t0)
	cpu0, err := taskCPU(d.pid())
	if err != nil {
		stopAll(d)
		return err
	}
	replies, wall := closedLoop(ctx, d.url, seqs)
	cpu1, err := taskCPU(d.pid())
	if err != nil {
		stopAll(d)
		return err
	}
	rss, err := peakRSS(d.pid())
	if err != nil {
		stopAll(d)
		return err
	}
	if err := stopAll(d); err != nil {
		return err
	}
	g.checkReplies(replies, ref)
	n := 0
	for _, r := range replies {
		for _, x := range r {
			rs.latMS = append(rs.latMS, ms(x.lat))
			n++
		}
	}
	rs.setup = append(rs.setup, setup.Seconds())
	rs.add(wall, cpu1-cpu0, rss, serveWork(seqs, ref), n)
	return nil
}

func measureServe(ctx context.Context, cfg config) (*outcome, error) {
	g := &gate{}
	seqs, ref, err := servePrepare(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	var rs rounds
	start := time.Now()
	for i := 0; len(rs.wall) < 3 || time.Since(start).Seconds() < cfg.seconds; i++ {
		rs.calibrate()
		if err := serveRound(ctx, cfg, i, seqs, ref, g, &rs); err != nil {
			return nil, err
		}
	}
	return &outcome{gate: g, metrics: rs.endToEnd(), rounds: &rs}, nil
}

// inProcess is the traced service topology: servers and a coordinator
// built in this process from server.New and fleet.NewCoordinator, with
// tracing middleware around their handlers.
type inProcess struct {
	servers []*server.Server
	https   []*http.Server
	stops   []func()
	done    sync.WaitGroup
}

// serve mounts h on a loopback port and returns its base URL.
func (p *inProcess) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	p.https = append(p.https, hs)
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// worker starts a traced sweep server with cameod's defaults, or with its
// fleet-worker settings when fleetWorker is set.
func (p *inProcess) worker(t *tracer, dir, node string, fleetWorker bool) (string, error) {
	disk, err := runner.OpenDiskCache(dir)
	if err != nil {
		return "", err
	}
	opts := server.Options{
		Jobs:        runtime.GOMAXPROCS(0),
		MaxInflight: 2,
		MaxQueue:    8,
		Disk:        disk,
		Cache:       tracedCache{inner: disk, t: t, node: node},
		Execute:     t.execute,
	}
	if fleetWorker {
		opts.Jobs, opts.MaxInflight = 1, 1
	}
	srv, err := server.New(opts)
	if err != nil {
		disk.Close()
		return "", err
	}
	p.servers = append(p.servers, srv)
	return p.serve(t.middleware("server.request", node, srv.Handler()))
}

// metrics merges every server's /metrics snapshot.
func (p *inProcess) metrics() metrics.Snapshot {
	var snaps []metrics.Snapshot
	for _, s := range p.servers {
		snaps = append(snaps, s.Metrics())
	}
	return metrics.Merge(snaps...)
}

// close shuts the listeners down, drains the servers, and waits for the
// serving goroutines.
func (p *inProcess) close() error {
	var first error
	for _, hs := range p.https {
		if err := hs.Shutdown(context.Background()); err != nil && first == nil {
			first = err
		}
	}
	for _, stop := range p.stops {
		stop()
	}
	for _, s := range p.servers {
		if err := s.Drain(); err != nil && first == nil {
			first = err
		}
	}
	p.done.Wait()
	return first
}

func traceServe(ctx context.Context, cfg config) (*outcome, error) {
	g := &gate{}
	seqs, ref, err := servePrepare(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	var rs rounds
	for i := 0; i < 2; i++ {
		if err := serveRound(ctx, cfg, i, seqs, ref, g, &rs); err != nil {
			return nil, err
		}
	}

	tr := newTracer()
	var ph phases
	var svc []metrics.Snapshot
	var cells map[string]system.Result
	start := time.Now()
	for i := 0; tracedPhaseOpen(start, cfg, i); i++ {
		p := &inProcess{}
		url, err := p.worker(tr, filepath.Join(cfg.work, fmt.Sprintf("serve-traced-%d", i)), "cameod", false)
		if err != nil {
			p.close()
			return nil, err
		}
		m := tr.mark()
		var replies [][]reply
		err = ph.run(func() error {
			replies, _ = closedLoop(ctx, url, seqs)
			return nil
		})
		svc = append(svc, p.metrics())
		if cerr := p.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		g.checkReplies(replies, ref)
		g.checkTraced(tr, m, ref)
		cells = tr.results(m)
	}
	if err := tr.write(cfg.traceDir, "serve", cfg.seed); err != nil {
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
		overhead:      median(ph.walls) / median(rs.wall),
	}, cfg.log)}, nil
}

func metricTotal(s metrics.Snapshot, name string) float64 {
	v, _ := s.Get(name)
	return v.Total()
}
