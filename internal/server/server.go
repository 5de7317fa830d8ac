// Package server implements cameod's long-running HTTP sweep service: a
// hardened front end over internal/runner that accepts sweep requests,
// propagates request deadlines into the simulation's cooperative
// cancellation machinery, sheds load when saturated, and drains cleanly on
// shutdown.
//
// Hardening properties (each covered by a test):
//
//   - Admission control: at most MaxInflight sweeps execute concurrently and
//     at most MaxQueue more may wait; beyond that, requests are shed with
//     429 + Retry-After instead of piling up goroutines.
//   - Deadline propagation: a request's context (client disconnect, or the
//     request's own timeout_ms) cancels its sweep mid-flight — the engine's
//     preemption points unwind the event loops and the workers are
//     reclaimed.
//   - Panic isolation: a panicking handler answers 500 and is counted; the
//     process survives.
//   - Graceful drain: Drain stops admission (readyz flips to 503), lets
//     in-flight sweeps finish within DrainGrace, then force-cancels the
//     stragglers, and finally flushes the disk cache — so SIGTERM never
//     loses completed cells.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cameo/internal/boundedmap"
	"cameo/internal/metrics"
	"cameo/internal/runner"
	"cameo/internal/sweepapi"
	"cameo/internal/system"
)

// Options configures a Server. The zero value is usable for tests: no disk
// cache, default admission limits, silent log.
type Options struct {
	// Jobs is the per-sweep simulation worker count (<=0: GOMAXPROCS).
	Jobs int
	// MaxInflight bounds concurrently executing sweep requests (<=0: 2).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot (<0: 8; 0 is
	// honoured: shed immediately when all slots are busy).
	MaxQueue int
	// MaxCells caps the grid size a single request may ask for (<=0: 1024).
	MaxCells int
	// JobTimeout arms the runner's per-cell watchdog (0 = off).
	JobTimeout time.Duration
	// CacheDir, when non-empty, persists cell results across requests and
	// restarts (shared runner.DiskCache). Ignored when Disk is set.
	CacheDir string
	// Disk, when non-nil, is a pre-opened local result store the caller
	// composed (e.g. under a fleet peer-cache tier). The server adopts it:
	// it backs the /cache/ peer endpoints and is closed by Drain.
	Disk *runner.DiskCache
	// Cache, when non-nil, overrides the execution-tier cache handed to the
	// runner (e.g. a fleet.PeerTier consulting other workers before
	// recomputing). Nil falls back to Disk / CacheDir.
	Cache runner.Cache
	// DrainGrace bounds how long Drain waits for in-flight sweeps before
	// force-cancelling them (<=0: 30s).
	DrainGrace time.Duration
	// Log receives operational lines (admission, drain, panics). Nil
	// discards them.
	Log *log.Logger
	// Execute overrides cell execution (tests). Nil runs real simulations.
	Execute func(ctx context.Context, j runner.Job) system.Result
}

// Server is the sweep service. Create with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	opts  Options
	cache *runner.DiskCache

	// slots is the admission semaphore; pending counts every admitted
	// request from arrival to release (executing plus queued) — the number
	// the shedding threshold compares against.
	slots   chan struct{}
	pending atomic.Int64

	// draining gates admission; mu orders the draining flip against
	// in-flight registration so Drain's wg.Wait cannot miss a handler that
	// passed the gate concurrently.
	draining atomic.Bool
	mu       sync.RWMutex
	wg       sync.WaitGroup

	// forceCtx is cancelled when DrainGrace expires: every admitted sweep
	// runs under it, so stragglers are preempted instead of outliving the
	// process.
	forceCtx    context.Context
	forceCancel context.CancelFunc

	// memo answers cells this process has already answered, keyed by cell
	// hash (runner.Job.Hash); nil when the server has no result cache, so
	// without one every repeat executes.
	memo *boundedmap.Map[string, SweepCell]

	reg            *metrics.Registry
	requests       *metrics.Counter
	admitted       *metrics.Counter
	shed           *metrics.Counter
	completed      *metrics.Counter
	cancelled      *metrics.Counter
	failed         *metrics.Counter
	panics         *metrics.Counter
	cellsExecuted  *metrics.Counter
	cellsFromCache *metrics.Counter
	peerGets       *metrics.Counter
	peerGetMisses  *metrics.Counter
}

// New builds a Server, opening the disk cache when CacheDir is set.
func New(opts Options) (*Server, error) {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 2
	}
	if opts.MaxQueue < 0 {
		opts.MaxQueue = 8
	}
	if opts.MaxCells <= 0 {
		opts.MaxCells = 1024
	}
	if opts.DrainGrace <= 0 {
		opts.DrainGrace = 30 * time.Second
	}
	if opts.Log == nil {
		opts.Log = log.New(io.Discard, "", 0)
	}
	s := &Server{
		opts:  opts,
		slots: make(chan struct{}, opts.MaxInflight),
		reg:   metrics.NewRegistry(),
	}
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	sc := s.reg.Scope("server")
	s.requests = sc.Counter("requests")
	s.admitted = sc.Counter("admitted")
	s.shed = sc.Counter("shed")
	s.completed = sc.Counter("completed")
	s.cancelled = sc.Counter("cancelled")
	s.failed = sc.Counter("failed")
	s.panics = sc.Counter("panics")
	s.cellsExecuted = sc.Counter("cells_executed")
	s.cellsFromCache = sc.Counter("cells_from_cache")
	s.peerGets = sc.Counter("peer_cache_gets")
	s.peerGetMisses = sc.Counter("peer_cache_get_misses")
	sc.GaugeFunc("inflight", func() float64 { return float64(len(s.slots)) })
	sc.GaugeFunc("queued", func() float64 {
		if q := s.pending.Load() - int64(len(s.slots)); q > 0 {
			return float64(q)
		}
		return 0
	})
	switch {
	case opts.Disk != nil:
		s.cache = opts.Disk
	case opts.CacheDir != "":
		cache, err := runner.OpenDiskCache(opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.cache = cache
	}
	if s.cache != nil || opts.Cache != nil {
		s.memo = boundedmap.New[string, SweepCell](replyMemoBound)
	}
	return s, nil
}

// Handler returns the service's routes, each behind the panic-recovery
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/cache/", s.handleCache)
	return s.protect(mux)
}

// protect is the panic-recovery middleware: a panicking handler answers 500
// and increments server/panics; the process keeps serving.
func (s *Server) protect(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				s.opts.Log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleHealthz reports process liveness: 200 as long as we can serve at
// all, including during drain (liveness must not make the orchestrator kill
// a draining process).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz reports admission readiness with a structured body: 503 once
// draining so load balancers stop routing new sweeps here, and a JSON
// ReadyState either way (in-flight slots, queue depth, drain state, whether
// the reply memo keeps results) so a fleet coordinator can make
// admission-aware placement decisions instead of inferring load from a bare
// status code.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.ReadyState()
	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		s.opts.Log.Printf("readyz: %v", err)
	}
}

// ReadyState samples the admission picture readyz serves.
func (s *Server) ReadyState() sweepapi.ReadyState {
	draining := s.draining.Load()
	inflight := len(s.slots)
	queued := int(s.pending.Load()) - inflight
	if queued < 0 {
		queued = 0
	}
	return sweepapi.ReadyState{
		Ready:        !draining,
		Draining:     draining,
		Inflight:     inflight,
		MaxInflight:  s.opts.MaxInflight,
		Queued:       queued,
		MaxQueue:     s.opts.MaxQueue,
		KeepsResults: s.memo != nil,
	}
}

// handleCache is the fleet cache-peer protocol: GET serves the local
// checksummed cameo-cache-entry-v1 envelope for a cell hash. The fetching
// peer verifies it before adopting it, so a corrupt entry can never cross
// the fleet: it is quarantined at whichever side first notices.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/cache/")
	if !runner.ValidHash(hash) {
		writeError(w, http.StatusBadRequest, "malformed cell hash")
		return
	}
	if s.cache == nil {
		writeError(w, http.StatusNotFound, "no cache configured")
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.peerGets.Inc()
	data, ok := s.cache.LoadRaw(hash)
	if !ok {
		s.peerGetMisses.Inc()
		writeError(w, http.StatusNotFound, "no entry for "+hash)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleMetrics emits the service metrics as one deterministic JSON
// snapshot: the server registry (counters plus pull-style inflight/queued
// gauges) merged with the local disk cache's counters and, when the
// execution tier is a composed cache (fleet.PeerTier), its hit/miss/reject
// counters — so one endpoint answers "did this worker recompute anything?".
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.metricsSnapshot().WriteJSON(w); err != nil {
		s.opts.Log.Printf("metrics: %v", err)
	}
}

// metricsSnapshot merges the server scope with the cache tiers' scopes.
func (s *Server) metricsSnapshot() metrics.Snapshot {
	snaps := []metrics.Snapshot{s.reg.Snapshot()}
	if s.cache != nil {
		snaps = append(snaps, s.cache.Metrics())
	}
	if m, ok := s.opts.Cache.(interface{ Metrics() metrics.Snapshot }); ok {
		snaps = append(snaps, m.Metrics())
	}
	return metrics.Merge(snaps...)
}

// The sweep wire schema lives in internal/sweepapi (shared with the fleet
// coordinator); these aliases keep the historical server names working.
type (
	// SweepRequest is the POST /sweep body.
	SweepRequest = sweepapi.Request
	// SweepCell is one grid cell of the response, in request order.
	SweepCell = sweepapi.Cell
	// SweepResponse is the POST /sweep reply.
	SweepResponse = sweepapi.Response
)

// handleSweep admits, executes, and answers one sweep request.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := sweepapi.DecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	grid, err := sweepapi.BuildGrid(req, s.opts.MaxCells)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	jobs, tags := grid.Jobs, grid.Tags

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	// The sweep context: the request's own (client disconnect), bounded by
	// timeout_ms when given, and force-cancelled when the drain grace
	// expires.
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	defer cancel()
	ctx, stopForce := mergeCancel(ctx, s.forceCtx)
	defer stopForce()

	// Cells this process has already answered come from the memo; only
	// the rest reach a runner, so a fully memoized request builds none.
	cells := make([]SweepCell, len(jobs))
	memoized := make([]bool, len(jobs))
	var hashes []string
	rest := jobs
	if s.memo != nil {
		hashes = make([]string, len(jobs))
		rest = make([]runner.Job, 0, len(jobs))
		for i, j := range jobs {
			hashes[i] = j.Hash()
			if cells[i], memoized[i] = s.memo.Get(hashes[i]); memoized[i] {
				s.cellsFromCache.Inc()
			} else {
				rest = append(rest, j)
			}
		}
	}
	var (
		run         *runner.Runner
		failedCells *runner.FailedCellsError
	)
	if len(rest) > 0 {
		run = s.newRunner()
		err = run.RunAll(ctx, rest)
		s.cellsExecuted.Add(run.ExecutedCells())
		s.cellsFromCache.Add(run.CacheHitCells())
		switch {
		case err == nil:
		case errors.As(err, &failedCells):
			// The grid below holds the surviving cells; the response
			// names the quarantined ones.
			s.failed.Inc()
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			s.cancelled.Inc()
			if s.draining.Load() {
				writeError(w, http.StatusServiceUnavailable, "server draining: sweep cancelled")
			} else {
				writeError(w, http.StatusGatewayTimeout, "sweep cancelled: "+err.Error())
			}
			return
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}

	resp := SweepResponse{Org: req.Org, Cells: make([]SweepCell, 0, len(jobs))}
	for i, j := range jobs {
		if !memoized[i] {
			res, ok := run.Lookup(j.Key())
			if !ok {
				continue // quarantined; listed in Failures
			}
			cells[i] = SweepCell{
				Org:           res.Org,
				Cycles:        res.Cycles,
				Instructions:  res.Instructions,
				Demands:       res.Demands,
				AvgMemLatency: res.AvgMemLatency,
				LatencyP95:    res.LatencyP95,
			}
			if s.memo != nil {
				s.memo.Put(hashes[i], cells[i])
			}
		}
		cells[i].Benchmark = tags[i]
		resp.Cells = append(resp.Cells, cells[i])
	}
	if failedCells != nil {
		resp.Failures = failedCells.Report.Cells
	}
	s.completed.Inc()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		s.opts.Log.Printf("sweep response: %v", err)
	}
}

// newRunner builds the runner for one sweep's unmemoized cells.
func (s *Server) newRunner() *runner.Runner {
	ropts := runner.Options{
		Jobs:       s.opts.Jobs,
		Execute:    s.opts.Execute,
		JobTimeout: s.opts.JobTimeout,
	}
	switch {
	case s.opts.Cache != nil:
		// A composed tier (e.g. the fleet peer cache) consults the local
		// disk itself.
		ropts.Cache = s.opts.Cache
	case s.cache != nil:
		// Assign only when present: a nil *DiskCache in the interface field
		// would read as non-nil and dereference.
		ropts.Cache = s.cache
	}
	return runner.New(ropts)
}

// replyMemoBound caps the reply memo: 4096 entries of about 250 B each
// come to about 1 MiB. An entry is a reply cell without its Benchmark tag:
// only what a reply uses, never the decoded system.Result (about 7 KB
// live). The memo is dropped whole when full: a dropped cell costs one load
// from the cache tier beneath.
const replyMemoBound = 4096

// admit applies the admission policy: reject while draining, shed with 429
// when the queue is full, otherwise wait for an execution slot. On ok the
// caller holds a slot and a drain-visible wg entry; release returns both.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	// Register under the read lock so Drain (write lock) either sees this
	// request in the WaitGroup or this request sees draining already set.
	s.mu.RLock()
	if s.draining.Load() {
		s.mu.RUnlock()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	s.wg.Add(1)
	s.mu.RUnlock()

	undo := func() {
		s.pending.Add(-1)
		s.wg.Done()
	}
	if n := s.pending.Add(1); n > int64(s.opts.MaxQueue)+int64(s.opts.MaxInflight) {
		undo()
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "saturated: try again later")
		return nil, false
	}
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		undo()
		s.cancelled.Inc()
		writeError(w, http.StatusServiceUnavailable, "client gone while queued")
		return nil, false
	case <-s.forceCtx.Done():
		undo()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return nil, false
	}
	s.admitted.Inc()
	return func() {
		<-s.slots
		undo()
	}, true
}

// Drain performs the graceful-shutdown sequence: stop admitting (readyz
// flips to 503), wait up to DrainGrace for in-flight sweeps, force-cancel
// any stragglers (cooperative preemption unwinds their event loops), wait
// for them to acknowledge, and flush the disk cache. Idempotent; safe to
// call once the http listener has stopped accepting or while it still runs.
func (s *Server) Drain() error {
	s.mu.Lock()
	already := s.draining.Swap(true)
	s.mu.Unlock()
	if already {
		return nil
	}
	s.opts.Log.Printf("drain: stopping admission")

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.opts.DrainGrace)
	select {
	case <-done:
	case <-timer.C:
		s.opts.Log.Printf("drain: grace %s expired, cancelling in-flight sweeps", s.opts.DrainGrace)
		s.forceCancel()
		<-done
	}
	timer.Stop()

	var err error
	if s.cache != nil {
		err = s.cache.Close()
	}
	s.forceCancel() // every sweep has finished; release forceCtx itself
	s.opts.Log.Printf("drain: complete")
	return err
}

// Metrics returns the merged service snapshot (server scope plus cache
// tiers), as served by /metrics.
func (s *Server) Metrics() metrics.Snapshot { return s.metricsSnapshot() }

// mergeCancel returns a context cancelled when either parent is; stop
// cancels it and unregisters the forwarding from other. Nothing runs
// until other is cancelled.
func mergeCancel(ctx, other context.Context) (context.Context, context.CancelFunc) {
	merged, cancel := context.WithCancel(ctx)
	unregister := context.AfterFunc(other, cancel)
	return merged, func() {
		unregister()
		cancel()
	}
}

// writeError answers a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
